package core

import (
	"context"
	"errors"
	"testing"

	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gcn"
	"dsplacer/internal/gen"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
	"dsplacer/internal/stage"
)

func miniSetup(t *testing.T) (*fpga.Device, *netlist.Netlist) {
	t.Helper()
	dev := fpga.NewZCU104()
	nl, err := gen.Generate(gen.Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	return dev, nl
}

func TestOracleIdentifier(t *testing.T) {
	_, nl := miniSetup(t)
	ids, err := OracleIdentifier{}.Identify(context.Background(), nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) == 0 {
		t.Fatal("no datapath DSPs found")
	}
	for _, c := range ids {
		if !nl.Cells[c].DatapathTruth {
			t.Fatalf("cell %d not datapath", c)
		}
	}
}

func TestRunDSPlacerFlow(t *testing.T) {
	dev, nl := miniSetup(t)
	cfg := Config{ClockMHz: gen.Small().FreqMHz, MCFIterations: 8, Rounds: 1, Seed: 1}
	res, err := Run(context.Background(), dev, nl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != "dsplacer" {
		t.Fatalf("flow=%q", res.Flow)
	}
	if len(res.Pos) != nl.NumCells() {
		t.Fatal("positions missing")
	}
	// All DSPs placed on distinct sites.
	seen := map[int]bool{}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		j, ok := res.SiteOfDSP[c]
		if !ok {
			t.Fatalf("DSP %d unplaced", c)
		}
		if seen[j] {
			t.Fatalf("site %d reused", j)
		}
		seen[j] = true
	}
	// Cascade legality survives the full flow.
	sites := dev.DSPSites()
	for _, pair := range nl.CascadePairs() {
		sp := sites[res.SiteOfDSP[pair[0]]]
		ss := sites[res.SiteOfDSP[pair[1]]]
		if sp.Col != ss.Col || ss.Row != sp.Row+1 {
			t.Fatalf("cascade %v broken", pair)
		}
	}
	if res.HPWL <= 0 || res.RoutedWL <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
	if res.Profile.Total <= 0 || res.Profile.DSPPlace <= 0 {
		t.Fatalf("profile missing: %+v", res.Profile)
	}
}

func TestRunBaselines(t *testing.T) {
	dev, nl := miniSetup(t)
	cfg := Config{ClockMHz: gen.Small().FreqMHz, Seed: 2}
	for _, mode := range []placer.Mode{placer.ModeVivado, placer.ModeAMF} {
		res, err := RunBaseline(context.Background(), dev, nl, mode, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Flow != mode.String() {
			t.Fatalf("flow=%q", res.Flow)
		}
		if res.RoutedWL <= 0 {
			t.Fatalf("%v: no routed wirelength", mode)
		}
	}
}

func TestWeightsRestoredAfterRun(t *testing.T) {
	dev, nl := miniSetup(t)
	before := make([]float64, len(nl.Nets))
	for i, n := range nl.Nets {
		before[i] = n.Weight
	}
	_, err := Run(context.Background(), dev, nl, Config{ClockMHz: 150, MCFIterations: 4, Rounds: 1, TimingDriven: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range nl.Nets {
		if n.Weight != before[i] {
			t.Fatalf("net %d weight leaked: %v vs %v", i, n.Weight, before[i])
		}
	}
}

func TestGCNIdentifierEndToEnd(t *testing.T) {
	dev := fpga.NewZCU104()
	spec := gen.Small()
	nl, err := gen.Generate(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := features.Config{Seed: 5}
	sample, err := BuildSample(nl, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gcn.Defaults(features.NumFeatures)
	cfg.Epochs = 60
	model, _ := gcn.Train(cfg, []*gcn.Sample{sample}, sample)
	id := &GCNIdentifier{Model: model, FeatureCfg: fcfg}
	got, err := id.Identify(context.Background(), nl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("GCN identified no datapath DSPs")
	}
	// Training on the same graph should reach high precision/recall.
	truth := map[int]bool{}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		truth[c] = nl.Cells[c].DatapathTruth
	}
	hit := 0
	for _, c := range got {
		if truth[c] {
			hit++
		}
	}
	if float64(hit)/float64(len(got)) < 0.8 {
		t.Fatalf("precision %d/%d too low", hit, len(got))
	}
}

func TestGCNIdentifierNilModel(t *testing.T) {
	_, nl := miniSetup(t)
	id := &GCNIdentifier{}
	if _, err := id.Identify(context.Background(), nl); err == nil {
		t.Fatal("nil model accepted")
	}
}

func TestRunRSADFlow(t *testing.T) {
	dev, nl := miniSetup(t)
	res, err := RunRSAD(context.Background(), dev, nl, Config{ClockMHz: gen.Small().FreqMHz, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Flow != "rsad" {
		t.Fatalf("flow=%q", res.Flow)
	}
	// All DSPs on distinct sites, cascades legal (the lattice guarantees it).
	sites := dev.DSPSites()
	seen := map[int]bool{}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		j, ok := res.SiteOfDSP[c]
		if !ok || seen[j] {
			t.Fatalf("DSP %d bad site", c)
		}
		seen[j] = true
	}
	for _, pair := range nl.CascadePairs() {
		sp := sites[res.SiteOfDSP[pair[0]]]
		ss := sites[res.SiteOfDSP[pair[1]]]
		if sp.Col != ss.Col || ss.Row != sp.Row+1 {
			t.Fatalf("cascade %v broken", pair)
		}
	}
	if res.RoutedWL <= 0 || res.Profile.Total <= 0 {
		t.Fatalf("metrics missing: %+v", res)
	}
}

// Canceling during feature extraction must surface as ErrCanceled from Run,
// tagged with the identify stage — the PR 4 cancellation contract extended
// through the Identifier interface.
func TestRunCanceledDuringIdentify(t *testing.T) {
	dev, nl := miniSetup(t)
	fcfg := features.Config{Seed: 1}
	sample, err := BuildSample(nl, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := gcn.Defaults(features.NumFeatures)
	gcfg.Epochs = 2
	model, _ := gcn.Train(gcfg, []*gcn.Sample{sample}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	cancelAfterPrototype := &cancelingIdentifier{
		inner:  &GCNIdentifier{Model: model, FeatureCfg: fcfg},
		cancel: cancel,
	}
	_, err = Run(ctx, dev, nl, Config{
		ClockMHz: 150, MCFIterations: 2, Rounds: 1, Identifier: cancelAfterPrototype,
	})
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v lacks ErrCanceled/context.Canceled", err)
	}
}

// cancelingIdentifier cancels the context right before delegating, so the
// cancellation lands inside the feature-extraction sweeps.
type cancelingIdentifier struct {
	inner  Identifier
	cancel context.CancelFunc
}

func (c *cancelingIdentifier) Name() string { return "canceling" }

func (c *cancelingIdentifier) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	c.cancel()
	return c.inner.Identify(ctx, nl)
}

// WithStages must return a stage-scoped copy, leaving the original
// identifier untouched so concurrent jobs stay isolated.
func TestIdentifierWithStagesIsolation(t *testing.T) {
	g := &GCNIdentifier{FeatureCfg: features.Config{Seed: 3}}
	rec := stage.NewRecorder()
	got := g.WithStages(rec)
	if g.FeatureCfg.Stages != nil {
		t.Fatal("WithStages mutated the original GCNIdentifier")
	}
	if got.(*GCNIdentifier).FeatureCfg.Stages != rec {
		t.Fatal("copy lacks the recorder")
	}
}

// stagedOracleIdentifier extracts features (exercising the extraction
// timers) but answers with ground truth, so the downstream flow stays legal
// regardless of classifier quality.
type stagedOracleIdentifier struct{ fcfg features.Config }

func (s *stagedOracleIdentifier) Name() string { return "staged-oracle" }

func (s *stagedOracleIdentifier) WithStages(rec *stage.Recorder) Identifier {
	c := *s
	c.fcfg.Stages = rec
	return &c
}

func (s *stagedOracleIdentifier) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	if _, err := features.ExtractContext(ctx, nl, s.fcfg); err != nil {
		return nil, err
	}
	return OracleIdentifier{}.Identify(ctx, nl)
}

// The features.centrality and gsp.filter timers must land in the run's own
// recorder when the flow uses a feature-extracting identifier: Run hands
// cfg.Stages to identifiers that support WithStages.
func TestRunRecordsCentralityStage(t *testing.T) {
	dev, nl := miniSetup(t)
	rec := stage.NewRecorder()
	_, err := Run(context.Background(), dev, nl, Config{
		ClockMHz: 150, MCFIterations: 2, Rounds: 1,
		Identifier: &stagedOracleIdentifier{fcfg: features.Config{Seed: 2}},
		Stages:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	for _, name := range []string{"features.centrality", "gsp.filter", "core.extraction"} {
		if snap[name].Count == 0 {
			t.Fatalf("stage %q not recorded; got %v", name, snap)
		}
	}
}
