package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
	"dsplacer/internal/placer"
	"dsplacer/internal/stage"
)

func TestRunCanceledUpFront(t *testing.T) {
	dev, nl := miniSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, dev, nl, Config{Seed: 1})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err %v does not wrap ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", err)
	}
}

// TestRunCanceledMidFlow cancels the context from inside the prototype
// gate (the corruption hook runs at every gate regardless of level), so
// the flow is provably past its first stage when the cancellation lands at
// the next boundary check.
func TestRunCanceledMidFlow(t *testing.T) {
	dev, nl := miniSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		ClockMHz: gen.Small().FreqMHz, MCFIterations: 4, Rounds: 1, Seed: 1,
		corruptHook: func(stage string, pos []geom.Point, siteOf map[int]int) {
			if stage == "prototype" {
				cancel()
			}
		},
	}
	_, err := Run(ctx, dev, nl, cfg)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap ErrCanceled + context.Canceled", err)
	}
	want := `stage "extraction"`
	if !contains(err.Error(), want) {
		t.Fatalf("err %q does not name the boundary %s", err, want)
	}
}

// TestRunCanceledInsideAssign cancels during the first legalize gate, so
// the cancellation surfaces from inside the round loop — either the next
// boundary check or the assignment loop itself — wrapped in the same
// sentinel.
func TestRunCanceledInsideAssign(t *testing.T) {
	dev, nl := miniSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		ClockMHz: gen.Small().FreqMHz, MCFIterations: 4, Rounds: 2, Seed: 1,
		corruptHook: func(stage string, pos []geom.Point, siteOf map[int]int) {
			if stage == "legalize[0]" {
				cancel()
			}
		},
	}
	_, err := Run(ctx, dev, nl, cfg)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap ErrCanceled + context.Canceled", err)
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	dev, nl := miniSetup(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := Run(ctx, dev, nl, Config{Seed: 1})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v does not wrap ErrCanceled + DeadlineExceeded", err)
	}
}

func TestBaselineAndRSADCanceled(t *testing.T) {
	dev, nl := miniSetup(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBaseline(ctx, dev, nl, placer.ModeVivado, Config{Seed: 1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("baseline err %v does not wrap ErrCanceled", err)
	}
	if _, err := RunRSAD(ctx, dev, nl, Config{Seed: 1}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("rsad err %v does not wrap ErrCanceled", err)
	}
}

// TestRunRecordsProfileIntoRecorder pins the cfg.Stages plumbing: a
// successful run deposits the flow profile and hot-path timings into the
// caller's recorder.
func TestRunRecordsProfileIntoRecorder(t *testing.T) {
	dev, nl := miniSetup(t)
	rec := stage.NewRecorder(nil)
	cfg := Config{ClockMHz: gen.Small().FreqMHz, MCFIterations: 4, Rounds: 1, Seed: 1, Stages: rec}
	if _, err := Run(context.Background(), dev, nl, cfg); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	for _, want := range []string{"core.total", "core.prototype", "assign.solve", "dspgraph.build"} {
		if snap[want].Count == 0 {
			t.Errorf("recorder missing %q: %v", want, snap)
		}
	}
	if got := snap["assign.solve"].Count; got != 1 {
		t.Errorf("assign.solve count %d, want 1 (one round)", got)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
