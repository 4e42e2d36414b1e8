package placer

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
)

// TestElectroBitIdenticalAcrossGOMAXPROCS pins the determinism contract of
// the Nesterov engine: the sharded density reduction and parallel gradient
// passes must produce bit-identical positions at any worker count. Exact
// float64 equality, no epsilon.
func TestElectroBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(3, 60, 60, 6, 4, dev)
	run := func(procs int) []geom.Point {
		t.Helper()
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		pos, err := GlobalPlace(context.Background(), dev, nl, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return pos
	}
	serial := run(1)
	wide := run(8)
	for i := range serial {
		if serial[i] != wide[i] {
			t.Fatalf("cell %d: GOMAXPROCS=1 places %v, GOMAXPROCS=8 places %v (must be bit-identical)",
				i, serial[i], wide[i])
		}
	}
}

// TestElectroBitIdenticalOnGeneratedDesign repeats the determinism check on
// a generated accelerator of about six thousand cells, where every parallel
// pass hands each worker blocks of many nets or cells per claim. A cold
// ModeAMF run (the 400-step CG seed, both axes solved at once) and a warm
// ModeDSPlacer run (fixed DSP sites, dataflow SpMV) must place every cell
// at the same position at GOMAXPROCS 1, 2 and 8.
func TestElectroBitIdenticalOnGeneratedDesign(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := gen.Generate(gen.Systolic(), dev)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := Place(dev, nl, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  Options
	}{
		{"cold-amf", Options{Mode: ModeAMF, Seed: 5}},
		{"warm-dsplacer", Options{Mode: ModeDSPlacer, Seed: 5, Warm: proto.Pos, FixedSites: proto.SiteOfDSP}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var serial []geom.Point
			for _, procs := range []int{1, 2, 8} {
				old := runtime.GOMAXPROCS(procs)
				pos, err := GlobalPlace(context.Background(), dev, nl, c.opt)
				runtime.GOMAXPROCS(old)
				if err != nil {
					t.Fatal(err)
				}
				if serial == nil {
					serial = pos
					continue
				}
				for i := range serial {
					if pos[i] != serial[i] {
						t.Fatalf("cell %d: GOMAXPROCS=1 places (%.17g, %.17g), GOMAXPROCS=%d places (%.17g, %.17g) (must be bit-identical)",
							i, serial[i].X, serial[i].Y, procs, pos[i].X, pos[i].Y)
					}
				}
			}
		})
	}
}

// TestElectroRepeatableWithFrozenSeed pins that two runs with the same seed
// are bit-identical — the engine has no hidden nondeterminism (map order,
// time, pointer values) feeding the math.
func TestElectroRepeatableWithFrozenSeed(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(11, 50, 50, 6, 4, dev)
	a, err := GlobalPlace(context.Background(), dev, nl, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GlobalPlace(context.Background(), dev, nl, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: run 1 %v vs run 2 %v", i, a[i], b[i])
		}
	}
}

// Legal HPWL of the retired quadratic CG/B2B engine (GPIterations rounds
// of solve + slab spreading with doubling anchors) on gen.Small, zcu104,
// seed 5: cold from scratch, and warm from the electrostatic cold result
// with its DSP sites fixed. Frozen at full float64 precision when that
// engine was deleted.
const (
	quadraticColdHPWL = 4684.125
	quadraticWarmHPWL = 4590.125
)

// TestElectroQoRParityWithQuadratic checks the electrostatic engine does not
// lose quality against the quadratic CG/B2B engine it replaced, on the
// engine's actual workload — a generated accelerator netlist: cold placement
// must stay within tolerance of the quadratic result, and the incremental
// (warm) re-place — the flow's hot path, where the Nesterov budget is half a
// cold run — must not lose to the quadratic warm path at all.
func TestElectroQoRParityWithQuadratic(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := gen.Generate(gen.Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	place := func(warm []geom.Point, fixed map[int]int) *Result {
		t.Helper()
		res, err := Place(dev, nl, Options{Seed: 5, Warm: warm, FixedSites: fixed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	e := place(nil, nil)
	t.Logf("cold HPWL electrostatic %.1f, quadratic %.1f", e.HPWL, quadraticColdHPWL)
	if e.HPWL > 1.20*quadraticColdHPWL {
		t.Errorf("cold electrostatic HPWL %.1f worse than quadratic %.1f by >20%%", e.HPWL, quadraticColdHPWL)
	}
	ew := place(e.Pos, e.SiteOfDSP)
	t.Logf("warm HPWL electrostatic %.1f, quadratic %.1f", ew.HPWL, quadraticWarmHPWL)
	if ew.HPWL > 1.05*quadraticWarmHPWL {
		t.Errorf("warm electrostatic HPWL %.1f worse than quadratic %.1f by >5%%", ew.HPWL, quadraticWarmHPWL)
	}
}

// countdownCtx reports Canceled after its first n Err calls return nil,
// landing the cancellation deterministically inside the Nesterov loop.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n <= 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestElectroCanceledMidLoop verifies the per-iteration ctx check: the loop
// must abort partway through (not at a stage boundary), name the iteration
// it stopped at, and keep context.Canceled in the error chain.
func TestElectroCanceledMidLoop(t *testing.T) {
	dev := testDevice(t)
	nl := randomDesign(9, 40, 40, 4, 2, dev)
	ctx := &countdownCtx{Context: context.Background(), n: 5}
	_, err := GlobalPlace(ctx, dev, nl, Options{Seed: 3})
	if err == nil {
		t.Fatal("expected cancellation error, got nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "iteration") {
		t.Fatalf("err %q does not name the iteration it stopped at", err)
	}
}
