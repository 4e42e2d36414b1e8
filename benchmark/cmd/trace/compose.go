package main

import (
	"context"
	"fmt"
	"time"

	"dsplacer"
	"dsplacer/internal/assign"
	"dsplacer/internal/detailed"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gcn"
	"dsplacer/internal/geom"
	"dsplacer/internal/legalize"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
	"dsplacer/internal/route"
	"dsplacer/internal/sta"
)

// Defaults of core.Config that the composed flows restate (core applies
// them in an unexported withDefaults).
const (
	defLambda         = 100
	defEta            = 50
	defMCFIterations  = 50
	defRounds         = 2
	defGraphDepth     = 8
	baselineGPIters   = 12
	prototypeGPIters  = 12
	replaceGPIters    = 6
	polishRounds      = 2
	polishPasses      = 2
	criticalityBoost  = 3
	finalDetailPasses = 2
)

// counts are the per-layer work counters recorded at the same boundaries
// as the spans.
type counts struct {
	gp, legal            time.Duration // placer.Result.GPTime, LegalTime
	refineCalls, refined int           // detailed.Refine calls, calls with positive gain
	assignCalls          int
	assignIters          int
	assignConverged      int
	dspgraphEdges        int
	featureNodes         int
	overflowEdges        int
	tnsBitMismatches     int
}

// composer rebuilds the program's flows from public layer calls, in the
// order core.Run and core.RunBaseline make them, with a span around each.
type composer struct {
	tr *Tracer
	c  counts
}

// call runs fn inside a span named name under parent.
func (k *composer) call(op, parent int, name string, fn func()) {
	id := k.tr.Begin(op, parent, name)
	fn()
	k.tr.End(id)
}

func (k *composer) place(ctx context.Context, op, root int, dev *fpga.Device, nl *netlist.Netlist, opt placer.Options) (res *placer.Result, err error) {
	k.call(op, root, "placer.PlaceContext", func() { res, err = placer.PlaceContext(ctx, dev, nl, opt) })
	if err != nil {
		return nil, fmt.Errorf("placer: %w", err)
	}
	k.c.gp += res.GPTime
	k.c.legal += res.LegalTime
	return res, nil
}

func (k *composer) analyze(op, root int, nl *netlist.Netlist, pos []geom.Point, opt sta.Options) (res *sta.Result, err error) {
	k.call(op, root, "sta.Analyze", func() { res, err = sta.Analyze(nl, pos, opt) })
	if err != nil {
		return nil, fmt.Errorf("sta: %w", err)
	}
	return res, nil
}

// polish is core's timingPolish: criticality-weighted detailed placement,
// with the caller's net weights restored afterwards.
func (k *composer) polish(op, root int, dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, period float64, seed int64) error {
	saved := make([]float64, len(nl.Nets))
	for i, n := range nl.Nets {
		saved[i] = n.Weight
	}
	defer func() {
		for i, n := range nl.Nets {
			n.Weight = saved[i]
		}
	}()
	for round := 0; round < polishRounds; round++ {
		timing, err := k.analyze(op, root, nl, pos, sta.Options{ClockPeriodNs: period})
		if err != nil {
			return err
		}
		var w []float64
		k.call(op, root, "sta.NetCriticality", func() { w = sta.NetCriticality(nl, timing, criticalityBoost) })
		for ni, x := range w {
			nl.Nets[ni].Weight = x
		}
		var gain float64
		k.call(op, root, "detailed.Refine", func() {
			gain = detailed.Refine(dev, nl, pos, detailed.Options{Passes: polishPasses, Seed: seed})
		})
		k.c.refineCalls++
		if gain <= 0 {
			break
		}
		k.c.refined++
	}
	return nil
}

// finish is the route + STA tail every flow ends with.
func (k *composer) finish(op, root int, dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, siteOf map[int]int, period float64) (*dsplacer.Result, error) {
	var rr *route.Result
	k.call(op, root, "route.Route", func() { rr = route.Route(dev, nl, pos, route.Options{}) })
	k.c.overflowEdges += rr.OverflowEdges
	timing, err := k.analyze(op, root, nl, pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	if err != nil {
		return nil, err
	}
	return &dsplacer.Result{Pos: pos, SiteOfDSP: siteOf, WNS: timing.WNS, TNS: timing.TNS,
		HPWL: metrics.HPWLUnit(nl, pos), RoutedWL: rr.Wirelength, Overflow: rr.OverflowEdges}, nil
}

func withDefaults(cfg dsplacer.Config) dsplacer.Config {
	if cfg.Lambda == 0 {
		cfg.Lambda = defLambda
	}
	if cfg.Eta == 0 {
		cfg.Eta = defEta
	}
	if cfg.MCFIterations == 0 {
		cfg.MCFIterations = defMCFIterations
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = defRounds
	}
	return cfg
}

// dsplacerFlow is core.Run with the oracle identifier.
func (k *composer) dsplacerFlow(ctx context.Context, op, root int, dev *fpga.Device, nl *netlist.Netlist, cfg dsplacer.Config) (*dsplacer.Result, error) {
	cfg = withDefaults(cfg)
	period := 1000 / cfg.ClockMHz
	proto, err := k.place(ctx, op, root, dev, nl, placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed, GPIterations: prototypeGPIters})
	if err != nil {
		return nil, err
	}
	var datapath []int
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if nl.Cells[c].DatapathTruth {
			datapath = append(datapath, c)
		}
	}
	dg := k.dspgraph(op, root, nl, datapath)

	pos := proto.Pos
	var siteOf map[int]int
	for round := 0; round < cfg.Rounds; round++ {
		var ar *assign.Result
		k.call(op, root, "assign.Solve", func() {
			ar, err = assign.Solve(ctx, &assign.Problem{
				Device: dev, Netlist: nl, Graph: dg, DSPs: datapath, Pos: pos,
				Lambda: cfg.Lambda, Eta: cfg.Eta, Iterations: cfg.MCFIterations,
			})
		})
		if err != nil {
			return nil, fmt.Errorf("assign: %w", err)
		}
		k.c.assignCalls++
		k.c.assignIters += ar.Iterations
		if ar.Converged {
			k.c.assignConverged++
		}
		var legal map[int]int
		k.call(op, root, "legalize.Legalize", func() { legal, err = legalize.Legalize(dev, nl, ar.SiteOf, legalize.Options{}) })
		if err != nil {
			return nil, fmt.Errorf("legalize: %w", err)
		}
		detail := 0
		if round == cfg.Rounds-1 {
			detail = finalDetailPasses
		}
		res, err := k.place(ctx, op, root, dev, nl, placer.Options{
			Mode: placer.ModeDSPlacer, Seed: cfg.Seed + int64(round) + 1,
			FixedSites: legal, GPIterations: replaceGPIters, Warm: pos, DetailedPasses: detail,
		})
		if err != nil {
			return nil, err
		}
		pos, siteOf = res.Pos, res.SiteOfDSP
	}
	if err := k.polish(op, root, dev, nl, pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	return k.finish(op, root, dev, nl, pos, siteOf, period)
}

// baselineFlow is core.RunBaseline.
func (k *composer) baselineFlow(ctx context.Context, op, root int, dev *fpga.Device, nl *netlist.Netlist, mode placer.Mode, cfg dsplacer.Config) (*dsplacer.Result, error) {
	period := 1000 / cfg.ClockMHz
	res, err := k.place(ctx, op, root, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed, GPIterations: baselineGPIters})
	if err != nil {
		return nil, err
	}
	res, err = k.place(ctx, op, root, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed + 1,
		GPIterations: replaceGPIters, Warm: res.Pos, DetailedPasses: finalDetailPasses})
	if err != nil {
		return nil, err
	}
	if err := k.polish(op, root, dev, nl, res.Pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	return k.finish(op, root, dev, nl, res.Pos, res.SiteOfDSP, period)
}

// dspgraph builds the DSP graph and keeps the datapath DSPs' subgraph.
func (k *composer) dspgraph(op, root int, nl *netlist.Netlist, datapath []int) *dspgraph.Graph {
	var dg *dspgraph.Graph
	k.call(op, root, "dspgraph.Build", func() { dg = dspgraph.Build(nl, dspgraph.Config{MaxDepth: defGraphDepth}) })
	k.c.dspgraphEdges += len(dg.Edges)
	keep := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		keep[c] = true
	}
	k.call(op, root, "dspgraph.Filter", func() { dg = dg.Filter(func(id int) bool { return keep[id] }) })
	return dg
}

// identify is core.GCNIdentifier.Identify: features, standardization,
// the normalized adjacency and the GCN forward pass.
func (k *composer) identify(ctx context.Context, op, root int, nl *netlist.Netlist, model *gcn.Model, fcfg features.Config) ([]int, error) {
	var set *features.Set
	var err error
	k.call(op, root, "features.ExtractContext", func() { set, err = features.ExtractContext(ctx, nl, fcfg) })
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	k.c.featureNodes += nl.NumCells()
	sample := &gcn.Sample{Name: nl.Name, Mask: set.DSP, Labels: make([]int, nl.NumCells())}
	k.call(op, root, "features.Standardize", func() { sample.X = features.Standardize(set.X) })
	for _, c := range set.DSP {
		if nl.Cells[c].DatapathTruth {
			sample.Labels[c] = 1
		}
	}
	k.call(op, root, "gcn.NormalizedAdjacency", func() { sample.Adj = gcn.NormalizedAdjacency(nl.ToGraph()) })
	var classes []int
	k.call(op, root, "gcn.Predict", func() { classes, _ = model.Predict(sample) })
	var out []int
	for i, c := range sample.Mask {
		if classes[i] == 1 {
			out = append(out, c)
		}
	}
	return out, nil
}
