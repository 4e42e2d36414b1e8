package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
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

// TestProfileCoversTotal pins the Fig. 8 decomposition: the five buckets
// must account for nearly all of a flow's wall time, so no stage (the timing
// polish, the final STA) runs between the timers unattributed.
func TestProfileCoversTotal(t *testing.T) {
	dev, nl := miniSetup(t)
	cfg := Config{ClockMHz: gen.Small().FreqMHz, MCFIterations: 8, Rounds: 1, Seed: 1}
	ctx := context.Background()
	flows := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"dsplacer", func() (*Result, error) { return Run(ctx, dev, nl, cfg) }},
		{"vivado", func() (*Result, error) { return RunBaseline(ctx, dev, nl, placer.ModeVivado, cfg) }},
		{"rsad", func() (*Result, error) { return RunRSAD(ctx, dev, nl, cfg) }},
	}
	for _, f := range flows {
		t.Run(f.name, func(t *testing.T) {
			res, err := f.run()
			if err != nil {
				t.Fatal(err)
			}
			p := res.Profile
			sum := p.Prototype + p.Extraction + p.DSPPlace + p.OtherPlace + p.Routing
			if cover := sum.Seconds() / p.Total.Seconds(); cover < 0.95 {
				t.Errorf("buckets cover %.1f%% of Total, want >= 95%%: %+v", 100*cover, p)
			}
		})
	}
}

// TestFlowsShareNetlist runs every flow twice, all at once, on one shared
// netlist. The netlist must come out deep-equal to a copy taken before the
// runs, and each run must give the bits of the same flow run alone on its
// own copy. Under -race it also proves that no flow writes what another
// reads.
func TestFlowsShareNetlist(t *testing.T) {
	dev, nl := miniSetup(t)
	orig := cloneNetlist(nl)
	cfg := Config{ClockMHz: gen.Small().FreqMHz, MCFIterations: 4, Rounds: 1, Seed: 3}
	ctx := context.Background()
	flows := []struct {
		name string
		run  func(*netlist.Netlist) (*Result, error)
	}{
		{"dsplacer", func(nl *netlist.Netlist) (*Result, error) { return Run(ctx, dev, nl, cfg) }},
		{"vivado", func(nl *netlist.Netlist) (*Result, error) { return RunBaseline(ctx, dev, nl, placer.ModeVivado, cfg) }},
		{"rsad", func(nl *netlist.Netlist) (*Result, error) { return RunRSAD(ctx, dev, nl, cfg) }},
	}
	alone := make([]*Result, len(flows))
	for i, f := range flows {
		res, err := f.run(cloneNetlist(nl))
		if err != nil {
			t.Fatalf("%s alone: %v", f.name, err)
		}
		res.Profile = Profile{}
		alone[i] = res
	}

	const copies = 2
	shared := make([]*Result, copies*len(flows))
	errs := make([]error, len(shared))
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared[i], errs[i] = flows[i%len(flows)].run(nl)
		}(i)
	}
	wg.Wait()

	if !reflect.DeepEqual(nl, orig) {
		t.Error("the flows wrote the shared netlist")
	}
	for i, res := range shared {
		f := flows[i%len(flows)]
		if errs[i] != nil {
			t.Errorf("%s on the shared netlist: %v", f.name, errs[i])
			continue
		}
		res.Profile = Profile{}
		if !reflect.DeepEqual(res, alone[i%len(flows)]) {
			t.Errorf("%s on the shared netlist differs from the same flow run alone", f.name)
		}
	}
}

// cloneNetlist deep-copies nl: no cell, net, macro or dataflow edge of the
// copy shares memory with nl.
func cloneNetlist(nl *netlist.Netlist) *netlist.Netlist {
	c := &netlist.Netlist{Name: nl.Name}
	for _, cell := range nl.Cells {
		cp := *cell
		c.Cells = append(c.Cells, &cp)
	}
	for _, n := range nl.Nets {
		cp := *n
		cp.Sinks = append([]int(nil), n.Sinks...)
		c.Nets = append(c.Nets, &cp)
	}
	for _, m := range nl.Macros {
		c.Macros = append(c.Macros, append([]int(nil), m...))
	}
	c.Dataflow = append([]netlist.DataflowEdge(nil), nl.Dataflow...)
	return c
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

// A model trained on another feature width is refused before extraction
// (it used to panic in the first matmul), and Run tags the error with the
// identify stage.
func TestGCNIdentifierWrongWidth(t *testing.T) {
	dev, nl := miniSetup(t)
	id := &GCNIdentifier{Model: gcn.NewModel(gcn.Defaults(3))}
	_, err := Run(context.Background(), dev, nl, Config{MCFIterations: 2, Rounds: 1, Identifier: id})
	if err == nil {
		t.Fatal("a 3-feature model was accepted")
	}
	if want := "core: identify: core: GCN model takes 3 features per node"; !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error %q, want prefix %q", err, want)
	}
}

// BuildSample builds Â from the undirected graph feature extraction made;
// it must equal Â built from a fresh netlist graph.
func TestBuildSampleAdjacency(t *testing.T) {
	_, nl := miniSetup(t)
	sample, err := BuildSample(nl, features.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := gcn.NormalizedAdjacency(nl.ToGraph()); !reflect.DeepEqual(sample.Adj, want) {
		t.Fatal("sample Â differs from gcn.NormalizedAdjacency(nl.ToGraph())")
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

// stagedOracleIdentifier extracts features (exercising the extraction
// timers) but answers with ground truth, so the downstream flow stays legal
// regardless of classifier quality.
type stagedOracleIdentifier struct{ fcfg features.Config }

func (s *stagedOracleIdentifier) Name() string { return "staged-oracle" }

func (s *stagedOracleIdentifier) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	if _, err := features.ExtractContext(ctx, nl, s.fcfg); err != nil {
		return nil, err
	}
	return OracleIdentifier{}.Identify(ctx, nl)
}

// The features.centrality and gsp.filter timers land in the run's own
// recorder when the flow's feature-extracting identifier is configured
// with it.
func TestRunRecordsCentralityStage(t *testing.T) {
	dev, nl := miniSetup(t)
	rec := stage.NewRecorder(nil)
	_, err := Run(context.Background(), dev, nl, Config{
		ClockMHz: 150, MCFIterations: 2, Rounds: 1,
		Identifier: &stagedOracleIdentifier{fcfg: features.Config{Seed: 2, Stages: rec}},
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
