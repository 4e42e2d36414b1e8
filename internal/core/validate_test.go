package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"dsplacer/internal/drc"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

func validateDev(t *testing.T) *fpga.Device {
	t.Helper()
	dev, err := fpga.NewDevice(fpga.Config{Name: "v", Pattern: "CCDCB", Repeats: 3, RegionRows: 2,
		PSWidth: 2, PSHeight: 20})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func validateSpec() gen.Spec {
	return gen.Spec{Name: "vmini", LUT: 400, LUTRAM: 24, FF: 500, BRAM: 10, DSP: 24, FreqMHz: 200, Seed: 3}
}

// TestRunEveryStagePassesOnExample: the full DSPlacer flow with the
// strictest gate level must come out clean on a generated design — i.e.
// drc.Check holds at every stage boundary, not just at the end.
func TestRunEveryStagePassesOnExample(t *testing.T) {
	dev := validateDev(t)
	nl, err := gen.Generate(validateSpec(), dev)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{ClockMHz: 200, MCFIterations: 4, Rounds: 2, Seed: 5, Validate: ValidateEveryStage}
	if _, err := Run(context.Background(), dev, nl, cfg); err != nil {
		t.Fatalf("every-stage validation failed on clean flow: %v", err)
	}
	if _, err := RunBaseline(context.Background(), dev, nl, placer.ModeVivado, cfg); err != nil {
		t.Fatalf("every-stage validation failed on vivado baseline: %v", err)
	}
	if _, err := RunRSAD(context.Background(), dev, nl, cfg); err != nil {
		t.Fatalf("every-stage validation failed on rsad flow: %v", err)
	}
}

// TestRunSurfacesInjectedOverfullSite injects an overfull-site corruption
// into a mid-flow artifact and asserts Run fails with a stage-tagged
// wrapped error — not a panic, not silent success.
func TestRunSurfacesInjectedOverfullSite(t *testing.T) {
	dev := validateDev(t)
	nl, err := gen.Generate(validateSpec(), dev)
	if err != nil {
		t.Fatal(err)
	}
	dsps := nl.CellsOfType(netlist.DSP)
	cfg := Config{ClockMHz: 200, MCFIterations: 4, Rounds: 1, Seed: 5, Validate: ValidateEveryStage}
	cfg.corruptHook = func(stage string, pos []geom.Point, siteOf map[int]int) {
		if stage != "replace[0]" || pos == nil {
			return
		}
		// Pile two DSPs onto one site: overfull + overlapping.
		a, b := dsps[0], dsps[1]
		pos[b] = pos[a]
		if siteOf != nil {
			siteOf[b] = siteOf[a]
		}
	}
	_, err = Run(context.Background(), dev, nl, cfg)
	if err == nil {
		t.Fatal("corrupted placement passed validation")
	}
	if !errors.Is(err, ErrDRC) {
		t.Fatalf("errors.Is(err, ErrDRC) = false for %v", err)
	}
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("errors.As failed for %v", err)
	}
	if verr.Stage != "replace[0]" || verr.Flow != "dsplacer" {
		t.Fatalf("wrong tag: flow %q stage %q", verr.Flow, verr.Stage)
	}
	if verr.Total < 1 || len(verr.Violations) < 1 {
		t.Fatalf("no violations carried: %+v", verr)
	}
}

// TestValidateOffSkipsGates: with the default level the corrupt hook fires
// once at each gate of every flow, but nothing checks, preserving the
// historical behaviour. The gate lists are the stage tags of DESIGN.md §10.
func TestValidateOffSkipsGates(t *testing.T) {
	dev := validateDev(t)
	nl, err := gen.Generate(validateSpec(), dev)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		flow  string
		run   func(Config) (*Result, error)
		gates []string
	}{
		{"dsplacer", func(c Config) (*Result, error) { return Run(ctx, dev, nl, c) },
			[]string{"prototype", "legalize[0]", "replace[0]", "final"}},
		{"vivado", func(c Config) (*Result, error) { return RunBaseline(ctx, dev, nl, placer.ModeVivado, c) },
			[]string{"placement", "refinement", "final"}},
		{"rsad", func(c Config) (*Result, error) { return RunRSAD(ctx, dev, nl, c) },
			[]string{"prototype", "lattice", "replace", "final"}},
	} {
		stages := map[string]int{}
		cfg := Config{ClockMHz: 200, MCFIterations: 4, Rounds: 1, Seed: 5}
		cfg.corruptHook = func(stage string, pos []geom.Point, siteOf map[int]int) { stages[stage]++ }
		if _, err := tc.run(cfg); err != nil {
			t.Fatalf("%s: %v", tc.flow, err)
		}
		if len(stages) != len(tc.gates) {
			t.Errorf("%s gated %v, want %v", tc.flow, stages, tc.gates)
		}
		for _, want := range tc.gates {
			if stages[want] != 1 {
				t.Errorf("%s: stage %q gated %d times, want 1 (saw %v)", tc.flow, want, stages[want], stages)
			}
		}
	}
}

func TestValidatePlacementOverfullSite(t *testing.T) {
	dev := validateDev(t)
	nl := netlist.New("of")
	a := nl.AddCell("a", netlist.DSP)
	b := nl.AddCell("b", netlist.DSP)
	nl.AddNet("n", a.ID, b.ID)
	site0 := dev.DSPSites()[0]
	pos := []geom.Point{dev.Loc(site0), dev.Loc(site0)}
	err := ValidatePlacement(dev, nl, pos, map[int]int{a.ID: 0, b.ID: 0}, "dsplacer", "final")
	if !errors.Is(err, ErrDRC) {
		t.Fatalf("overfull site not surfaced: %v", err)
	}
	var verr *ValidationError
	if !errors.As(err, &verr) || verr.Stage != "final" {
		t.Fatalf("stage tag lost: %v", err)
	}
	// The %w chain must survive another wrap, as Run applies one.
	wrapped := fmt.Errorf("core: %w", err)
	if !errors.Is(wrapped, ErrDRC) || !errors.As(wrapped, &verr) {
		t.Fatalf("wrapping broke the chain: %v", wrapped)
	}
}

func TestValidationErrorTruncatesReport(t *testing.T) {
	vs := make([]drc.Violation, MaxReportedViolations+5)
	for i := range vs {
		vs[i] = drc.Violation{Rule: "capacity", Cell: i, Msg: "x"}
	}
	err := newValidationError("dsplacer", "final", vs)
	var verr *ValidationError
	if !errors.As(err, &verr) {
		t.Fatal(err)
	}
	if verr.Total != len(vs) || len(verr.Violations) != MaxReportedViolations {
		t.Fatalf("got %d/%d", len(verr.Violations), verr.Total)
	}
	if !strings.Contains(err.Error(), "and 5 more") {
		t.Fatalf("truncation not reported: %v", err)
	}
}

func TestParseValidateLevel(t *testing.T) {
	cases := map[string]ValidateLevel{
		"off": ValidateOff, "none": ValidateOff,
		"final":  ValidateFinal,
		"stages": ValidateEveryStage, "every-stage": ValidateEveryStage, "all": ValidateEveryStage,
	}
	for s, want := range cases {
		got, err := ParseValidateLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseValidateLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseValidateLevel("bogus"); err == nil {
		t.Error("bogus level accepted")
	}
	if ValidateEveryStage.String() != "stages" || ValidateFinal.String() != "final" || ValidateOff.String() != "off" {
		t.Error("ValidateLevel.String mismatch")
	}
}
