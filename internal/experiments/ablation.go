package experiments

import (
	"context"
	"fmt"
	"io"

	"dsplacer/internal/assign"
	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/features"
	"dsplacer/internal/gcn"
	"dsplacer/internal/gen"
	"dsplacer/internal/legalize"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

// AblationLambda sweeps the datapath penalty λ on one benchmark and reports
// WNS/HPWL, exposing the trade-off §V-C describes (λ=100 chosen there).
func (s *Suite) AblationLambda(w io.Writer, spec gen.Spec, lambdas []float64, cfg TableIIConfig) error {
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: lambda sweep on %s.\n%10s %10s %12s %12s\n",
		spec.Name, "lambda", "WNS(ns)", "TNS(ns)", "HPWL")
	for _, l := range lambdas {
		ccfg := cfg.coreConfig(spec)
		ccfg.Lambda = l
		if l == 0 {
			ccfg.Lambda = 1e-9 // zero means "default" elsewhere; force off
		}
		res, err := core.Run(context.Background(), s.Dev, nl, ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10.1f %10.3f %12.3f %12.0f\n", l, res.WNS, res.TNS, res.HPWL)
	}
	return nil
}

// AblationMCFIterations sweeps the assignment iteration budget.
func (s *Suite) AblationMCFIterations(w io.Writer, spec gen.Spec, iters []int, cfg TableIIConfig) error {
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: MCF iteration budget on %s.\n%10s %10s %12s %12s\n",
		spec.Name, "iters", "WNS(ns)", "TNS(ns)", "HPWL")
	for _, it := range iters {
		ccfg := cfg.coreConfig(spec)
		ccfg.MCFIterations = it
		res, err := core.Run(context.Background(), s.Dev, nl, ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%10d %10.3f %12.3f %12.0f\n", it, res.WNS, res.TNS, res.HPWL)
	}
	return nil
}

// allDSPIdentifier treats every DSP as datapath — the "no GCN filtering"
// arm of the extraction ablation (§III-B argues control DSPs dilute the
// compact layout).
type allDSPIdentifier struct{}

func (allDSPIdentifier) Name() string { return "all-dsp" }

func (allDSPIdentifier) Identify(_ context.Context, nl *netlist.Netlist) ([]int, error) {
	return nl.CellsOfType(netlist.DSP), nil
}

// AblationIdentifier compares oracle-filtered datapath placement against
// placing every DSP with the datapath engine.
func (s *Suite) AblationIdentifier(w io.Writer, spec gen.Spec, cfg TableIIConfig) error {
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Ablation: datapath DSP filtering on %s.\n%12s %10s %12s %12s\n",
		spec.Name, "identifier", "WNS(ns)", "TNS(ns)", "HPWL")
	for _, id := range []core.Identifier{core.OracleIdentifier{}, allDSPIdentifier{}} {
		ccfg := cfg.coreConfig(spec)
		ccfg.Identifier = id
		res, err := core.Run(context.Background(), s.Dev, nl, ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12s %10.3f %12.3f %12.0f\n", id.Name(), res.WNS, res.TNS, res.HPWL)
	}
	return nil
}

// AblationLegalization reports cascade violations before and after the
// Eq. 10/11 legalizer on the raw MCF assignment.
func (s *Suite) AblationLegalization(w io.Writer, spec gen.Spec, cfg TableIIConfig) error {
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	proto, err := placer.Place(s.Dev, nl, placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed, Stages: cfg.Stages})
	if err != nil {
		return err
	}
	ids, _ := core.OracleIdentifier{}.Identify(context.Background(), nl)
	keep := map[int]bool{}
	for _, c := range ids {
		keep[c] = true
	}
	dg := dspgraph.Build(nl, dspgraph.Config{Stages: cfg.Stages}).Filter(func(id int) bool { return keep[id] })
	ar, err := assign.Solve(context.Background(), &assign.Problem{
		Device: s.Dev, Netlist: nl, Graph: dg, DSPs: ids, Pos: proto.Pos,
		Lambda: cfg.Lambda, Iterations: cfg.MCFIterations, Stages: cfg.Stages,
	})
	if err != nil {
		return err
	}
	before := assign.Violations(s.Dev, nl, ar.SiteOf)
	legal, err := legalize.Legalize(s.Dev, nl, ar.SiteOf, legalize.Options{})
	if err != nil {
		return err
	}
	after := assign.Violations(s.Dev, nl, legal)
	fmt.Fprintf(w, "Ablation: cascade legalization on %s.\n", spec.Name)
	fmt.Fprintf(w, "  violations after MCF: %d;  after legalization: %d\n", before, after)
	if after != 0 {
		return fmt.Errorf("experiments: legalization left %d violations", after)
	}
	return nil
}

// AblationGCN runs DSPlacer end to end with a *trained GCN* as the
// identifier (the paper's actual §III pipeline) against the oracle, using
// leave-one-out training on the remaining benchmarks. This closes the loop
// between Fig. 7 and Table II: classification quality feeds placement.
func (s *Suite) AblationGCN(w io.Writer, spec gen.Spec, cfg TableIIConfig, f7 Fig7Config) error {
	f7 = f7.withDefaults()
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	samples, err := s.buildSamples(f7)
	if err != nil {
		return err
	}
	var train []*gcn.Sample
	for i, sp := range s.Specs {
		if sp.Name != spec.Name {
			train = append(train, samples[i])
		}
	}
	if len(train) == 0 {
		return fmt.Errorf("experiments: AblationGCN needs other benchmarks to train on")
	}
	gcfg := gcn.Defaults(features.NumFeatures)
	gcfg.Epochs = f7.Epochs
	gcfg.Seed = f7.Seed + 77
	model, _ := gcn.Train(gcfg, train, nil)

	fmt.Fprintf(w, "Ablation: GCN-identified vs oracle datapath DSPs on %s.\n", spec.Name)
	fmt.Fprintf(w, "%12s %8s %10s %12s %12s\n", "identifier", "#dsps", "WNS(ns)", "TNS(ns)", "HPWL")
	fcfg := f7.featureCfg()
	fcfg.Stages = cfg.Stages
	ids := []core.Identifier{
		core.OracleIdentifier{},
		&core.GCNIdentifier{Model: model, FeatureCfg: fcfg},
	}
	for _, id := range ids {
		picked, err := id.Identify(context.Background(), nl)
		if err != nil {
			return err
		}
		ccfg := cfg.coreConfig(spec)
		ccfg.Identifier = id
		res, err := core.Run(context.Background(), s.Dev, nl, ccfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%12s %8d %10.3f %12.3f %12.0f\n",
			id.Name(), len(picked), res.WNS, res.TNS, res.HPWL)
	}
	return nil
}
