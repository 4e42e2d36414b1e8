// Package core assembles the full DSPlacer framework of Fig. 2: prototype
// placement with the off-the-shelf engine, GCN-based datapath DSP
// extraction, DSP graph construction, iterative min-cost-flow datapath DSP
// placement with cascade legalization, incremental re-placement of the
// other components (Fig. 6), and final routing + timing analysis. It also
// runs the two baseline flows (Vivado-like and AMF-like) used in Table II.
package core

import (
	"context"
	"fmt"
	"time"

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
	"dsplacer/internal/rsad"
	"dsplacer/internal/sta"
	"dsplacer/internal/stage"
)

// Identifier selects the datapath DSPs from a netlist (§III-A). The GCN
// implementation is the paper's; the oracle uses generator ground truth and
// exists so placement experiments can be isolated from classifier quality.
type Identifier interface {
	// Identify returns the cell ids of datapath DSPs. ctx cancels long
	// extractions mid-sweep; errors from cancellation wrap the context's
	// error so Run can classify them as ErrCanceled.
	Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error)
	Name() string
}

// OracleIdentifier returns the generator's ground-truth labels.
type OracleIdentifier struct{}

// Name implements Identifier.
func (OracleIdentifier) Name() string { return "oracle" }

// Identify implements Identifier.
func (OracleIdentifier) Identify(_ context.Context, nl *netlist.Netlist) ([]int, error) {
	var out []int
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if nl.Cells[c].DatapathTruth {
			out = append(out, c)
		}
	}
	return out, nil
}

// GCNIdentifier classifies DSPs with a trained model. Its feature
// extraction records into FeatureCfg.Stages.
type GCNIdentifier struct {
	Model      *gcn.Model
	FeatureCfg features.Config
}

// Name implements Identifier.
func (g *GCNIdentifier) Name() string { return "gcn" }

// Identify implements Identifier.
func (g *GCNIdentifier) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	if g.Model == nil {
		return nil, fmt.Errorf("core: GCNIdentifier has no model")
	}
	if d := g.Model.InputDim(); d != features.NumFeatures {
		return nil, fmt.Errorf("core: GCN model takes %d features per node, extraction gives %d", d, features.NumFeatures)
	}
	sample, err := BuildSampleContext(ctx, nl, g.FeatureCfg)
	if err != nil {
		return nil, err
	}
	classes, _ := g.Model.Predict(sample)
	var out []int
	for i, c := range sample.Mask {
		if classes[i] == 1 {
			out = append(out, c)
		}
	}
	return out, nil
}

// BuildSample extracts features and wraps nl as a GCN sample; it is
// BuildSampleContext without cancellation.
func BuildSample(nl *netlist.Netlist, fcfg features.Config) (*gcn.Sample, error) {
	return BuildSampleContext(context.Background(), nl, fcfg)
}

// BuildSampleContext extracts features under ctx and wraps nl as a GCN
// sample (labels come from generator ground truth and are used for
// training/evaluation only). Â comes from the undirected graph extraction
// built, so the netlist graph is built once per sample.
func BuildSampleContext(ctx context.Context, nl *netlist.Netlist, fcfg features.Config) (*gcn.Sample, error) {
	set, err := features.ExtractContext(ctx, nl, fcfg)
	if err != nil {
		return nil, err
	}
	X := features.Standardize(set.X)
	labels := make([]int, nl.NumCells())
	for _, c := range set.DSP {
		if nl.Cells[c].DatapathTruth {
			labels[c] = 1
		}
	}
	return &gcn.Sample{
		Name:   nl.Name,
		Adj:    gcn.NormalizedAdjacencyUndirected(set.Undirected),
		X:      X,
		Labels: labels,
		Mask:   set.DSP,
	}, nil
}

// Config tunes a DSPlacer run. A zero numeric setting selects its default;
// a negative one is an error (Check).
type Config struct {
	// ClockMHz is the target frequency (Table I).
	ClockMHz float64
	// Lambda and Eta are the Eq. 7 penalty weights (paper: λ=100).
	Lambda, Eta float64
	// MCFIterations bounds the linearized assignment loop (paper: 50).
	MCFIterations int
	// Rounds is the number of incremental alternations of Fig. 6.
	Rounds int
	// Identifier defaults to the oracle.
	Identifier Identifier
	// Seed drives every stochastic component.
	Seed int64
	// Validate gates stage boundaries with drc.Check: ValidateOff (default)
	// skips checking, ValidateFinal checks the flow's final placement,
	// ValidateEveryStage checks every intermediate artifact too. Failures
	// surface as *ValidationError wrapping ErrDRC.
	Validate ValidateLevel
	// Stages receives this run's hot-path timings (dspgraph build, the
	// assignment loop's phases) plus the per-stage flow profile
	// (core.prototype, core.extraction, ...); nil records nothing. The
	// identifier records into its own configuration's recorder, if any.
	Stages *stage.Recorder
	// corruptHook is test-only fault injection: when non-nil it may mutate
	// the stage artifact just before each gate runs, so tests can prove
	// corruption surfaces as a stage-tagged error end to end.
	corruptHook func(stage string, pos []geom.Point, siteOf map[int]int)
}

// Fixed flow settings.
const (
	// dspGraphDepth bounds the DSP graph's IDDFS (§III-B).
	dspGraphDepth = 8
	// fullGPIters is the placer schedule of the baselines' first placement
	// and of the prototype placement: with the electrostatic engine the
	// prototype seeds the MCF assignment and every later round, so it gets
	// the full baseline budget.
	fullGPIters = 12
	// replaceGPIters is the shorter schedule of each incremental
	// re-placement and of the baselines' refinement pass.
	replaceGPIters = 6
	// finalDetailPasses is the detailed-placement polish of the last
	// placer call of every flow but R-SAD.
	finalDetailPasses = 2
)

// Check returns an error naming the first numeric setting below zero.
// Zero selects a setting's default; a negative value has no meaning, and
// left to the flow it fails late or places nothing.
func (c Config) Check() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ClockMHz", c.ClockMHz}, {"Lambda", c.Lambda}, {"Eta", c.Eta},
		{"MCFIterations", float64(c.MCFIterations)}, {"Rounds", float64(c.Rounds)},
	} {
		if f.v < 0 {
			return fmt.Errorf("core: %s is %v; it must not be negative", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.ClockMHz == 0 {
		c.ClockMHz = 150
	}
	if c.Lambda == 0 {
		c.Lambda = 100
	}
	if c.Eta == 0 {
		c.Eta = 50
	}
	if c.MCFIterations == 0 {
		c.MCFIterations = 50
	}
	if c.Rounds == 0 {
		c.Rounds = 2
	}
	if c.Identifier == nil {
		c.Identifier = OracleIdentifier{}
	}
	return c
}

// Profile is the Fig. 8 runtime decomposition.
type Profile struct {
	Prototype  time.Duration // initial off-the-shelf placement
	Extraction time.Duration // datapath DSP identification + DSP graph
	DSPPlace   time.Duration // MCF assignment + cascade legalization
	OtherPlace time.Duration // incremental re-placement of other components and the timing polish
	Routing    time.Duration // global routing and the final timing analysis
	Total      time.Duration
}

// Result reports one full flow (DSPlacer or baseline).
type Result struct {
	Flow         string
	Pos          []geom.Point
	SiteOfDSP    map[int]int
	DatapathDSPs []int
	WNS, TNS     float64 // ns
	HPWL         float64 // um-equivalent fabric units
	RoutedWL     float64
	Overflow     int
	Profile      Profile
	// AssignIterations is the total MCF-loop iteration count across all
	// incremental rounds; AssignStopReason is the last round's stop reason
	// ("converged" or "budget").
	AssignIterations int
	AssignStopReason string
	// AssignTrace concatenates the per-iteration convergence traces of
	// every round. It feeds the job document's trace but stays out of the
	// JSON form, keeping cached outcomes slim.
	AssignTrace []assign.IterStats `json:"-"`
}

// flow is one run of any of the flows: what their stage boundaries and
// their common tail (place, finish) share. A flow only reads nl.
type flow struct {
	ctx   context.Context
	dev   *fpga.Device
	nl    *netlist.Netlist
	cfg   Config // defaulted
	gate  *gater
	prof  Profile
	start time.Time
}

// newFlow starts a run, or fails on a negative setting before any stage.
func newFlow(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, name string, cfg Config) (*flow, error) {
	if err := cfg.Check(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &flow{
		ctx: ctx, dev: dev, nl: nl, cfg: cfg,
		gate:  &gater{level: cfg.Validate, dev: dev, nl: nl, flow: name, corrupt: cfg.corruptHook},
		start: time.Now(),
	}, nil
}

// check gates the stage boundary named stage on the run's context.
func (f *flow) check(stage string) error { return checkCtx(f.ctx, f.gate.flow, stage) }

// place is one placer call at the stage boundary named stage, timed into
// bucket: the context check, the placement with the run's recorder, its
// error tagged with what, and the ValidateEveryStage gate.
func (f *flow) place(bucket *time.Duration, stage, what string, opt placer.Options) (*placer.Result, error) {
	if err := f.check(stage); err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer func() { *bucket += time.Since(t0) }()
	opt.Stages = f.cfg.Stages
	res, err := placer.PlaceContext(f.ctx, f.dev, f.nl, opt)
	if err != nil {
		return nil, stageErr(what, err)
	}
	if err := f.gate.placement(ValidateEveryStage, stage, res.Pos, res.SiteOfDSP); err != nil {
		return nil, err
	}
	return res, nil
}

// finish is the tail every flow ends with: the timing polish and the final
// gate (timed as OtherPlace), then routing and the final timing analysis
// (Routing). It fills out's placement, QoR and profile and records the
// profile into the run's recorder.
func (f *flow) finish(pos []geom.Point, siteOf map[int]int, out Result) (*Result, error) {
	period := 1000.0 / f.cfg.ClockMHz
	t0 := time.Now()
	if err := timingPolish(f.dev, f.nl, pos, period, f.cfg.Seed); err != nil {
		return nil, err
	}
	if err := f.gate.placement(ValidateFinal, "final", pos, siteOf); err != nil {
		return nil, err
	}
	f.prof.OtherPlace += time.Since(t0)

	if err := f.check("routing"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	rr := route.Route(f.dev, f.nl, pos, route.Options{})
	timing, err := sta.Analyze(f.nl, pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	if err != nil {
		return nil, fmt.Errorf("core: STA: %w", err)
	}
	f.prof.Routing = time.Since(t1)
	f.prof.Total = time.Since(f.start)
	recordProfile(f.cfg.Stages, f.prof)

	out.Flow = f.gate.flow
	out.Pos, out.SiteOfDSP = pos, siteOf
	out.WNS, out.TNS = timing.WNS, timing.TNS
	out.HPWL = metrics.HPWLUnit(f.nl, pos)
	out.RoutedWL, out.Overflow = rr.Wirelength, rr.OverflowEdges
	out.Profile = f.prof
	return &out, nil
}

// Run executes the complete DSPlacer flow on nl. ctx is consulted at every
// stage boundary and inside the assignment loop; once it is done, Run
// returns an error wrapping both ErrCanceled and the context's error.
func Run(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, cfg Config) (*Result, error) {
	f, err := newFlow(ctx, dev, nl, "dsplacer", cfg)
	if err != nil {
		return nil, err
	}
	cfg = f.cfg

	// --- Prototype placement (off-the-shelf engine, no datapath info) ----
	proto, err := f.place(&f.prof.Prototype, "prototype", "prototype placement",
		placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed, GPIterations: fullGPIters})
	if err != nil {
		return nil, err
	}

	// --- Datapath DSP extraction (§III) -----------------------------------
	if err := f.check("extraction"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	datapath, err := cfg.Identifier.Identify(ctx, nl)
	if err != nil {
		return nil, stageErr("identify", err)
	}
	dg := dspgraph.Build(nl, dspgraph.Config{MaxDepth: dspGraphDepth, Stages: cfg.Stages})
	keep := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		keep[c] = true
	}
	dg = dg.Filter(func(id int) bool { return keep[id] })
	f.prof.Extraction = time.Since(t1)

	// --- Incremental datapath-driven placement (Fig. 6) --------------------
	out := Result{DatapathDSPs: datapath}
	pos := proto.Pos
	var siteOf map[int]int
	for round := 0; round < cfg.Rounds; round++ {
		if err := f.check(fmt.Sprintf("assign[%d]", round)); err != nil {
			return nil, err
		}
		// (a) fix other components, place datapath DSPs.
		t2 := time.Now()
		ar, err := assign.Solve(ctx, &assign.Problem{
			Device: dev, Netlist: nl, Graph: dg, DSPs: datapath, Pos: pos,
			Lambda: cfg.Lambda, Eta: cfg.Eta, Iterations: cfg.MCFIterations,
			Stages: cfg.Stages,
		})
		if err != nil {
			return nil, stageErr("MCF assignment", err)
		}
		out.AssignIterations += ar.Iterations
		out.AssignStopReason = ar.StopReason
		out.AssignTrace = append(out.AssignTrace, ar.Trace...)
		legal, err := legalize.Legalize(dev, nl, ar.SiteOf, legalize.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: legalization: %w", err)
		}
		if err := f.gate.assignment(ValidateEveryStage, fmt.Sprintf("legalize[%d]", round), legal); err != nil {
			return nil, err
		}
		f.prof.DSPPlace += time.Since(t2)

		// (b) fix datapath DSPs, re-place the remaining components. The
		// final round gets the same detailed-placement polish as the
		// baselines' refinement pass, so the comparison stays fair.
		detail := 0
		if round == cfg.Rounds-1 {
			detail = finalDetailPasses
		}
		res, err := f.place(&f.prof.OtherPlace, fmt.Sprintf("replace[%d]", round), "incremental placement", placer.Options{
			Mode: placer.ModeDSPlacer, Seed: cfg.Seed + int64(round) + 1,
			FixedSites: legal, GPIterations: replaceGPIters, Warm: pos, DetailedPasses: detail,
		})
		if err != nil {
			return nil, err
		}
		pos, siteOf = res.Pos, res.SiteOfDSP
	}
	return f.finish(pos, siteOf, out)
}

// RunBaseline executes the Vivado-like or AMF-like comparison flow. ctx is
// consulted at every stage boundary, as in Run.
func RunBaseline(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, mode placer.Mode, cfg Config) (*Result, error) {
	f, err := newFlow(ctx, dev, nl, mode.String(), cfg)
	if err != nil {
		return nil, err
	}
	res, err := f.place(&f.prof.Prototype, "placement", fmt.Sprintf("%v placement", mode),
		placer.Options{Mode: mode, Seed: f.cfg.Seed, GPIterations: fullGPIters})
	if err != nil {
		return nil, err
	}
	// Refinement pass, warm-started from the first solution — commercial
	// flows run detailed-placement refinement after global placement; this
	// keeps the baselines' general-logic quality on par with DSPlacer's
	// incremental loop so Table II differences isolate DSP handling.
	res, err = f.place(&f.prof.Prototype, "refinement", fmt.Sprintf("%v refinement placement", mode),
		placer.Options{Mode: mode, Seed: f.cfg.Seed + 1, GPIterations: replaceGPIters, Warm: res.Pos,
			DetailedPasses: finalDetailPasses})
	if err != nil {
		return nil, err
	}
	return f.finish(res.Pos, res.SiteOfDSP, Result{})
}

// RunRSAD executes the R-SAD-style comparison flow (§I related work [26]):
// prototype placement, then the systolic-array lattice placer snaps every
// DSP onto a regular grid, then one incremental re-placement of the other
// components, routing and timing. The extension experiment uses it to test
// the paper's claim that array-specialized placement does not generalize to
// diverse accelerator architectures.
func RunRSAD(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, cfg Config) (*Result, error) {
	f, err := newFlow(ctx, dev, nl, "rsad", cfg)
	if err != nil {
		return nil, err
	}
	proto, err := f.place(&f.prof.Prototype, "prototype", "rsad prototype",
		placer.Options{Mode: placer.ModeVivado, Seed: f.cfg.Seed, GPIterations: fullGPIters})
	if err != nil {
		return nil, err
	}

	if err := f.check("lattice"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	siteOf, err := rsad.Place(dev, nl, proto.Pos)
	if err != nil {
		return nil, fmt.Errorf("core: rsad lattice: %w", err)
	}
	if err := f.gate.assignment(ValidateEveryStage, "lattice", siteOf); err != nil {
		return nil, err
	}
	f.prof.DSPPlace = time.Since(t1)

	res, err := f.place(&f.prof.OtherPlace, "replace", "rsad re-placement", placer.Options{
		Mode: placer.ModeDSPlacer, Seed: f.cfg.Seed + 1,
		FixedSites: siteOf, GPIterations: replaceGPIters, Warm: proto.Pos,
	})
	if err != nil {
		return nil, err
	}
	return f.finish(res.Pos, res.SiteOfDSP, Result{})
}

// recordProfile folds a completed flow's per-stage wall times into rec
// under the core.* stage names, so a flow's Fig. 8 decomposition is
// observable through the same recorder as the hot-path counters.
func recordProfile(rec *stage.Recorder, p Profile) {
	rec.Add("core.prototype", p.Prototype)
	rec.Add("core.extraction", p.Extraction)
	rec.Add("core.dsp_place", p.DSPPlace)
	rec.Add("core.other_place", p.OtherPlace)
	rec.Add("core.routing", p.Routing)
	rec.Add("core.total", p.Total)
}

// timingPolish is the criticality-weighted detailed-placement pass every
// flow ends with. It reweights a private copy of the nets by slack, so the
// window moves/swaps target the critical paths rather than raw HPWL, while
// nl — and with it routing, the final STA and the caller — keeps its own
// weights. Capacity legality is preserved exactly, so it is safe to run
// after legalization and before the final DRC gate.
func timingPolish(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, period float64, seed int64) error {
	wnl := *nl
	wnl.Nets = make([]*netlist.Net, len(nl.Nets))
	nets := make([]netlist.Net, len(nl.Nets))
	for i, n := range nl.Nets {
		nets[i] = *n
		wnl.Nets[i] = &nets[i]
	}
	// Two reweight+refine rounds: the first round's moves change which nets
	// are critical, and the refreshed weights let cells that started far
	// from their slack-optimal spot keep traveling instead of freezing at
	// the window boundary.
	for round := 0; round < 2; round++ {
		timing, err := sta.Analyze(&wnl, pos, sta.Options{ClockPeriodNs: period})
		if err != nil {
			return fmt.Errorf("core: estimate STA: %w", err)
		}
		for ni, w := range sta.NetCriticality(&wnl, timing, 3) {
			nets[ni].Weight = w
		}
		if detailed.Refine(dev, &wnl, pos, detailed.Options{Passes: 2, Seed: seed}) <= 0 {
			break
		}
	}
	return nil
}
