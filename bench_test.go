// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation, plus the DESIGN.md ablations. The benches run the real
// regeneration code paths on the ~1/16-scale mini benchmarks so that
// `go test -bench=.` terminates in minutes; `go run ./cmd/experiments -all`
// runs the identical harness at full Table-I scale (the numbers recorded in
// EXPERIMENTS.md come from that command).
package dsplacer

import (
	"context"
	"io"
	"testing"

	"dsplacer/internal/assign"
	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/experiments"
	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gcn"
	"dsplacer/internal/gen"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

func benchSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.MiniSpecs()[:3])
}

func benchCfg() experiments.TableIIConfig {
	return experiments.TableIIConfig{MCFIterations: 8, Rounds: 1, Lambda: 100, Seed: 1}
}

// BenchmarkTableI regenerates the benchmark-statistics table (Table I).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(experiments.MiniSpecs())
		if err := s.TableI(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_Vivado measures the Vivado-like baseline flow column.
func BenchmarkTableII_Vivado(b *testing.B) {
	benchFlowRow(b, func(s *experiments.Suite, spec gen.Spec) error {
		row, err := s.RunTableIIRow(spec, benchCfg())
		if err == nil && row.Vivado.HPWL <= 0 {
			b.Fatal("empty vivado metrics")
		}
		return err
	})
}

// BenchmarkTableII regenerates one full Table-II row (all three flows).
func BenchmarkTableII(b *testing.B) {
	benchFlowRow(b, func(s *experiments.Suite, spec gen.Spec) error {
		_, err := s.RunTableIIRow(spec, benchCfg())
		return err
	})
}

func benchFlowRow(b *testing.B, f func(*experiments.Suite, gen.Spec) error) {
	b.Helper()
	s := benchSuite()
	spec := s.Specs[0]
	if _, err := s.Netlist(spec); err != nil { // generation outside the loop
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f(s, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalPlace measures the analytical global-placement engine on
// one mini benchmark: cold placement from scratch and the warm incremental
// re-place (the flow's hot path — every DSPlacer round after the prototype
// re-places against the newly fixed datapath DSP sites). Each sub-benchmark
// reports the legal HPWL it achieves so speed is never read apart from
// quality.
func BenchmarkGlobalPlace(b *testing.B) {
	s := benchSuite()
	nl, err := s.Netlist(s.Specs[0])
	if err != nil {
		b.Fatal(err)
	}
	// A cold prototype is the warm run's starting point.
	proto, err := placer.Place(s.Dev, nl, placer.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		benchPlace(b, s, nl, placer.Options{Seed: 3})
	})
	b.Run("warm", func(b *testing.B) {
		benchPlace(b, s, nl, placer.Options{
			Seed: 3, Warm: proto.Pos, FixedSites: proto.SiteOfDSP,
		})
	})
}

// benchPlace times the global-placement phase alone, then — outside the
// timer — legalizes the identical positions via Place and reports the
// resulting legal HPWL, so the ns/op is read against the quality the
// positions actually deliver.
func benchPlace(b *testing.B, s *experiments.Suite, nl *netlist.Netlist, opt placer.Options) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placer.GlobalPlace(context.Background(), s.Dev, nl, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res, err := placer.Place(s.Dev, nl, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.HPWL, "legal-hpwl")
}

// BenchmarkDSPGraphBuild measures the §III-B DSP-graph construction (the
// per-DSP IDDFS sweep) on one mini benchmark — the tentpole hot path of the
// parallel-build work. ReportAllocs tracks the per-edge counter and scratch
// reuse wins.
func BenchmarkDSPGraphBuild(b *testing.B) {
	s := benchSuite()
	nl, err := s.Netlist(s.Specs[1])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg := dspgraph.Build(nl, dspgraph.Config{})
		if len(dg.Nodes) == 0 {
			b.Fatal("empty DSP graph")
		}
	}
}

// BenchmarkAssignIteration measures one linearized min-cost-flow assignment
// iteration (candidate generation + cost rows + flow solve) on one mini
// benchmark's datapath DSPs.
func BenchmarkAssignIteration(b *testing.B) {
	s := benchSuite()
	nl, err := s.Netlist(s.Specs[1])
	if err != nil {
		b.Fatal(err)
	}
	ids, err := core.OracleIdentifier{}.Identify(context.Background(), nl)
	if err != nil {
		b.Fatal(err)
	}
	dg := dspgraph.Build(nl, dspgraph.Config{})
	keep := make(map[int]bool, len(ids))
	for _, c := range ids {
		keep[c] = true
	}
	p := &assign.Problem{
		Device: s.Dev, Netlist: nl,
		Graph: dg.Filter(func(id int) bool { return keep[id] }),
		DSPs:  ids, Pos: syntheticPositions(s.Dev, nl), Iterations: 1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := assign.Solve(context.Background(), p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SiteOf) != len(ids) {
			b.Fatalf("assigned %d of %d", len(res.SiteOf), len(ids))
		}
	}
}

// BenchmarkFig7a regenerates the GCN-vs-SVM leave-one-out comparison.
func BenchmarkFig7a(b *testing.B) {
	s := benchSuite()
	for _, spec := range s.Specs {
		if _, err := s.Netlist(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7a(io.Discard, experiments.Fig7Config{Epochs: 15, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7b regenerates the train/test accuracy curve.
func BenchmarkFig7b(b *testing.B) {
	s := benchSuite()
	for _, spec := range s.Specs {
		if _, err := s.Netlist(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7b(io.Discard, experiments.Fig7Config{Epochs: 15, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8 regenerates the runtime-breakdown profile.
func BenchmarkFig8(b *testing.B) {
	s := benchSuite()
	for _, spec := range s.Specs[:2] {
		if _, err := s.Netlist(spec); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Fig8(io.Discard, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9 regenerates the three-flow layout visualization.
func BenchmarkFig9(b *testing.B) {
	s := benchSuite()
	if _, err := s.Netlist(s.Specs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Fig9(io.Discard, "", benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLambda sweeps the datapath penalty.
func BenchmarkAblationLambda(b *testing.B) {
	s := benchSuite()
	spec := s.Specs[1]
	if _, err := s.Netlist(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AblationLambda(io.Discard, spec, []float64{0, 100}, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMCFIterations sweeps the assignment iteration budget.
func BenchmarkAblationMCFIterations(b *testing.B) {
	s := benchSuite()
	spec := s.Specs[1]
	if _, err := s.Netlist(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AblationMCFIterations(io.Discard, spec, []int{1, 8}, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIdentifier compares oracle filtering vs placing all DSPs.
func BenchmarkAblationIdentifier(b *testing.B) {
	s := benchSuite()
	spec := s.Specs[1]
	if _, err := s.Netlist(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AblationIdentifier(io.Discard, spec, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLegalization measures MCF + cascade legalization alone.
func BenchmarkAblationLegalization(b *testing.B) {
	s := benchSuite()
	spec := s.Specs[1]
	if _, err := s.Netlist(spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.AblationLegalization(io.Discard, spec, benchCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

// featureBenchNetlist is the generated ZCU104-class workload of ~7.5k
// cells that the identification benchmarks run on.
func featureBenchNetlist(b *testing.B) *netlist.Netlist {
	b.Helper()
	spec := gen.Spec{Name: "feat-bench", LUT: 4000, LUTRAM: 300, FF: 3000,
		BRAM: 60, DSP: 160, FreqMHz: 200, Seed: 11}
	nl, err := gen.Generate(spec, fpga.NewZCU104())
	if err != nil {
		b.Fatal(err)
	}
	return nl
}

// BenchmarkFeatures measures feature extraction (the spectral estimator of
// internal/gsp) on featureBenchNetlist.
func BenchmarkFeatures(b *testing.B) {
	nl := featureBenchNetlist(b)
	cfg := features.Config{Seed: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := features.ExtractContext(context.Background(), nl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIdentify measures one GCN identification on featureBenchNetlist:
// feature extraction, standardization, the normalized adjacency and the
// forward pass over the DSPs' two-hop neighbourhood. The model has the
// paper's shape and fixed-seed random weights; its cost does not depend
// on what it learned.
func BenchmarkIdentify(b *testing.B) {
	nl := featureBenchNetlist(b)
	id := &core.GCNIdentifier{Model: gcn.NewModel(gcn.Defaults(features.NumFeatures)),
		FeatureCfg: features.Config{Seed: 5}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := id.Identify(context.Background(), nl); err != nil {
			b.Fatal(err)
		}
	}
}
