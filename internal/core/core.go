// Package core assembles the full DSPlacer framework of Fig. 2: prototype
// placement with the off-the-shelf engine, GCN-based datapath DSP
// extraction, DSP graph construction, iterative min-cost-flow datapath DSP
// placement with ILP cascade legalization, incremental re-placement of the
// other components (Fig. 6), and final routing + timing analysis. It also
// runs the two baseline flows (Vivado-like and AMF-like) used in Table II.
package core

import (
	"context"
	"fmt"
	"time"

	"dsplacer/internal/assign"
	"dsplacer/internal/costmodel"
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

// GCNIdentifier classifies DSPs with a trained model.
type GCNIdentifier struct {
	Model      *gcn.Model
	FeatureCfg features.Config
}

// Name implements Identifier.
func (g *GCNIdentifier) Name() string { return "gcn" }

// WithStages returns a copy whose feature extraction records into rec, so
// concurrent jobs sharing one identifier keep their timings isolated.
func (g *GCNIdentifier) WithStages(rec *stage.Recorder) Identifier {
	c := *g
	c.FeatureCfg.Stages = rec
	return &c
}

// Identify implements Identifier.
func (g *GCNIdentifier) Identify(ctx context.Context, nl *netlist.Netlist) ([]int, error) {
	if g.Model == nil {
		return nil, fmt.Errorf("core: GCNIdentifier has no model")
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
// training/evaluation only).
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
		Adj:    gcn.NormalizedAdjacency(nl.ToGraph()),
		X:      X,
		Labels: labels,
		Mask:   set.DSP,
	}, nil
}

// Config tunes a DSPlacer run.
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
	// TimingDriven enables one criticality-reweighting pass (applied
	// identically in the baseline flows).
	TimingDriven bool
	// MaxDSPGraphDepth bounds the IDDFS (§III-B), default 8.
	MaxDSPGraphDepth int
	// BaselineGPIters is the standalone placer schedule used by the
	// Vivado/AMF flows (default 12). PrototypeGPIters is DSPlacer's
	// prototype schedule (default 12 — with the electrostatic engine the
	// prototype seeds the MCF assignment and every later round, so it gets
	// the full baseline budget); ReplaceGPIters is the shorter schedule of
	// each incremental re-placement (default 6).
	BaselineGPIters, PrototypeGPIters, ReplaceGPIters int
	// GP selects the analytical global-placement engine for every placer
	// invocation of the flow: the electrostatic Nesterov engine (default)
	// or the legacy quadratic CG path, so suites can diff the engines.
	GP placer.GPMode
	// RouteOpts configures the global router.
	RouteOpts route.Options
	// Validate gates stage boundaries with drc.Check: ValidateOff (default)
	// skips checking, ValidateFinal checks the flow's final placement,
	// ValidateEveryStage checks every intermediate artifact too. Failures
	// surface as *ValidationError wrapping ErrDRC.
	Validate ValidateLevel
	// Stages receives this run's hot-path timings (dspgraph build, the
	// assignment loop's phases) plus the per-stage flow profile
	// (core.prototype, core.extraction, ...). nil records into the
	// process-wide default recorder; concurrent jobs pass their own
	// recorder so timings stay isolated per run.
	Stages *stage.Recorder
	// CostModel, when non-nil, arms the learned MCF hooks (early stop of
	// the assignment loop, candidate pruning) inside every assign.Solve of
	// the flow. Off (nil) by default: the flow is then bit-identical to a
	// build without the cost model.
	CostModel *costmodel.Model
	// CostModelOpts tunes the hooks; zero value = documented defaults.
	CostModelOpts costmodel.Options
	// TraceAssign additionally records winner-rank statistics in the
	// assignment trace (the PruneKeep training signal). Corpus-generation
	// runs set it; production flows leave it off.
	TraceAssign bool
	// corruptHook is test-only fault injection: when non-nil it may mutate
	// the stage artifact just before each gate runs, so tests can prove
	// corruption surfaces as a stage-tagged error end to end.
	corruptHook func(stage string, pos []geom.Point, siteOf map[int]int)
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
	if c.MaxDSPGraphDepth == 0 {
		c.MaxDSPGraphDepth = 8
	}
	if c.BaselineGPIters == 0 {
		c.BaselineGPIters = 12
	}
	if c.PrototypeGPIters == 0 {
		c.PrototypeGPIters = 12
	}
	if c.ReplaceGPIters == 0 {
		c.ReplaceGPIters = 6
	}
	return c
}

// Profile is the Fig. 8 runtime decomposition.
type Profile struct {
	Prototype  time.Duration // initial off-the-shelf placement
	Extraction time.Duration // datapath DSP identification + DSP graph
	DSPPlace   time.Duration // MCF assignment + cascade legalization
	OtherPlace time.Duration // incremental re-placement of other components
	Routing    time.Duration // global routing
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
	// ("converged", "predicted-flat" or "budget") and AssignPredHPWL the
	// cost model's final-HPWL prediction there (0 without a model).
	// AssignPrunedArcs counts candidate arcs the learned pruning dropped.
	AssignIterations int
	AssignStopReason string
	AssignPredHPWL   float64
	AssignPrunedArcs int
	// AssignTrace concatenates the per-iteration convergence traces of
	// every round. It feeds corpus generation and the trace endpoints but
	// stays out of the JSON form, keeping cached outcomes slim.
	AssignTrace []costmodel.IterStats `json:"-"`
}

// Run executes the complete DSPlacer flow on nl. ctx is consulted at every
// stage boundary and inside the assignment loop; once it is done, Run
// returns an error wrapping both ErrCanceled and the context's error.
func Run(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	period := 1000.0 / cfg.ClockMHz
	restore := snapshotWeights(nl)
	defer restore()
	gate := &gater{level: cfg.Validate, dev: dev, nl: nl, flow: "dsplacer", corrupt: cfg.corruptHook}

	total0 := time.Now()
	if err := checkCtx(ctx, "dsplacer", "prototype"); err != nil {
		return nil, err
	}

	// --- Prototype placement (off-the-shelf engine, no datapath info) ----
	t0 := time.Now()
	proto, err := placer.PlaceContext(ctx, dev, nl, placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed,
		GPIterations: cfg.PrototypeGPIters, GP: cfg.GP, Stages: cfg.Stages})
	if err != nil {
		return nil, stageErr("prototype placement", err)
	}
	if err := gate.placement(ValidateEveryStage, "prototype", proto.Pos, proto.SiteOfDSP); err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		if err := reweight(nl, proto.Pos, period); err != nil {
			return nil, err
		}
	}
	profile := Profile{Prototype: time.Since(t0)}

	// --- Datapath DSP extraction (§III) -----------------------------------
	if err := checkCtx(ctx, "dsplacer", "extraction"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	ident := cfg.Identifier
	if cfg.Stages != nil {
		// Per-job recorders (dsplacerd) must also capture the identifier's
		// extraction timers (features.centrality, gsp.filter, ...), so
		// identifiers that support it get a stage-scoped copy.
		if sw, ok := ident.(interface {
			WithStages(*stage.Recorder) Identifier
		}); ok {
			ident = sw.WithStages(cfg.Stages)
		}
	}
	datapath, err := ident.Identify(ctx, nl)
	if err != nil {
		return nil, stageErr("identify", err)
	}
	dg := dspgraph.Build(nl, dspgraph.Config{MaxDepth: cfg.MaxDSPGraphDepth, Stages: cfg.Stages})
	keep := make(map[int]bool, len(datapath))
	for _, c := range datapath {
		keep[c] = true
	}
	dg = dg.Filter(func(id int) bool { return keep[id] })
	profile.Extraction = time.Since(t1)

	// --- Incremental datapath-driven placement (Fig. 6) --------------------
	pos := proto.Pos
	var siteOf map[int]int
	var assignIters, assignPruned int
	var assignStop string
	var assignPred float64
	var assignTrace []costmodel.IterStats
	for round := 0; round < cfg.Rounds; round++ {
		if err := checkCtx(ctx, "dsplacer", fmt.Sprintf("assign[%d]", round)); err != nil {
			return nil, err
		}
		// (a) fix other components, place datapath DSPs.
		t2 := time.Now()
		ar, err := assign.Solve(ctx, &assign.Problem{
			Device: dev, Netlist: nl, Graph: dg, DSPs: datapath, Pos: pos,
			Lambda: cfg.Lambda, Eta: cfg.Eta, Iterations: cfg.MCFIterations,
			Stages:    cfg.Stages,
			CostModel: cfg.CostModel, CostOpts: cfg.CostModelOpts,
			TraceRanks: cfg.TraceAssign,
		})
		if err != nil {
			return nil, stageErr("MCF assignment", err)
		}
		assignIters += ar.Iterations
		assignPruned += ar.PrunedArcs
		assignStop = ar.StopReason
		assignPred = ar.PredHPWL
		assignTrace = append(assignTrace, ar.Trace...)
		legal, err := legalize.Legalize(dev, nl, ar.SiteOf, legalize.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: legalization: %w", err)
		}
		if err := gate.assignment(ValidateEveryStage, fmt.Sprintf("legalize[%d]", round), legal); err != nil {
			return nil, err
		}
		profile.DSPPlace += time.Since(t2)

		if err := checkCtx(ctx, "dsplacer", fmt.Sprintf("replace[%d]", round)); err != nil {
			return nil, err
		}
		// (b) fix datapath DSPs, re-place the remaining components.
		t3 := time.Now()
		detail := 0
		if round == cfg.Rounds-1 {
			// Final round gets the same detailed-placement polish the
			// baselines' refinement pass runs, so the comparison stays fair.
			detail = 2
		}
		res, err := placer.PlaceContext(ctx, dev, nl, placer.Options{
			Mode: placer.ModeDSPlacer, Seed: cfg.Seed + int64(round) + 1,
			FixedSites: legal, GPIterations: cfg.ReplaceGPIters, Warm: pos,
			GP: cfg.GP, Stages: cfg.Stages, DetailedPasses: detail,
		})
		if err != nil {
			return nil, stageErr("incremental placement", err)
		}
		pos = res.Pos
		siteOf = res.SiteOfDSP
		if err := gate.placement(ValidateEveryStage, fmt.Sprintf("replace[%d]", round), pos, siteOf); err != nil {
			return nil, err
		}
		profile.OtherPlace += time.Since(t3)
	}
	if err := timingPolish(dev, nl, pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	if err := gate.placement(ValidateFinal, "final", pos, siteOf); err != nil {
		return nil, err
	}

	// --- Routing + timing ----------------------------------------------------
	if err := checkCtx(ctx, "dsplacer", "routing"); err != nil {
		return nil, err
	}
	t4 := time.Now()
	rr := route.Route(dev, nl, pos, cfg.RouteOpts)
	profile.Routing = time.Since(t4)
	timing, err := sta.Analyze(nl, pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	if err != nil {
		return nil, fmt.Errorf("core: STA: %w", err)
	}
	profile.Total = time.Since(total0)
	recordProfile(cfg.Stages, profile)

	finalHPWL := metrics.HPWLUnit(nl, pos)
	if cfg.CostModel != nil && assignPred > 0 && finalHPWL > 0 {
		// Predicted-vs-actual error, folded into the recorder's seconds
		// scale (1s == 100% relative error) so the existing stage
		// histograms in /metrics show the error distribution per job.
		relErr := assignPred/finalHPWL - 1
		if relErr < 0 {
			relErr = -relErr
		}
		cfg.Stages.Add("costmodel.hpwlRelErr", time.Duration(relErr*float64(time.Second)))
	}

	return &Result{
		Flow:             "dsplacer",
		Pos:              pos,
		SiteOfDSP:        siteOf,
		DatapathDSPs:     datapath,
		WNS:              timing.WNS,
		TNS:              timing.TNS,
		HPWL:             finalHPWL,
		RoutedWL:         rr.Wirelength,
		Overflow:         rr.OverflowEdges,
		Profile:          profile,
		AssignIterations: assignIters,
		AssignStopReason: assignStop,
		AssignPredHPWL:   assignPred,
		AssignPrunedArcs: assignPruned,
		AssignTrace:      assignTrace,
	}, nil
}

// RunBaseline executes the Vivado-like or AMF-like comparison flow. ctx is
// consulted at every stage boundary, as in Run.
func RunBaseline(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, mode placer.Mode, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	period := 1000.0 / cfg.ClockMHz
	restore := snapshotWeights(nl)
	defer restore()
	gate := &gater{level: cfg.Validate, dev: dev, nl: nl, flow: mode.String(), corrupt: cfg.corruptHook}

	total0 := time.Now()
	if err := checkCtx(ctx, mode.String(), "placement"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	res, err := placer.PlaceContext(ctx, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed,
		GPIterations: cfg.BaselineGPIters, GP: cfg.GP, Stages: cfg.Stages})
	if err != nil {
		return nil, stageErr(fmt.Sprintf("%v placement", mode), err)
	}
	if err := gate.placement(ValidateEveryStage, "placement", res.Pos, res.SiteOfDSP); err != nil {
		return nil, err
	}
	if cfg.TimingDriven {
		if err := reweight(nl, res.Pos, period); err != nil {
			return nil, err
		}
	}
	// Refinement pass, warm-started from the first solution — commercial
	// flows run detailed-placement refinement after global placement; this
	// keeps the baselines' general-logic quality on par with DSPlacer's
	// incremental loop so Table II differences isolate DSP handling.
	if err := checkCtx(ctx, mode.String(), "refinement"); err != nil {
		return nil, err
	}
	res, err = placer.PlaceContext(ctx, dev, nl, placer.Options{Mode: mode, Seed: cfg.Seed + 1,
		GPIterations: cfg.ReplaceGPIters, Warm: res.Pos, GP: cfg.GP, Stages: cfg.Stages,
		DetailedPasses: 2})
	if err != nil {
		return nil, stageErr(fmt.Sprintf("%v refinement placement", mode), err)
	}
	if err := timingPolish(dev, nl, res.Pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	if err := gate.placement(ValidateFinal, "final", res.Pos, res.SiteOfDSP); err != nil {
		return nil, err
	}
	profile := Profile{Prototype: time.Since(t0)}

	if err := checkCtx(ctx, mode.String(), "routing"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	rr := route.Route(dev, nl, res.Pos, cfg.RouteOpts)
	profile.Routing = time.Since(t1)
	timing, err := sta.Analyze(nl, res.Pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	if err != nil {
		return nil, fmt.Errorf("core: STA: %w", err)
	}
	profile.Total = time.Since(total0)
	recordProfile(cfg.Stages, profile)

	return &Result{
		Flow:      mode.String(),
		Pos:       res.Pos,
		SiteOfDSP: res.SiteOfDSP,
		WNS:       timing.WNS,
		TNS:       timing.TNS,
		HPWL:      metrics.HPWLUnit(nl, res.Pos),
		RoutedWL:  rr.Wirelength,
		Overflow:  rr.OverflowEdges,
		Profile:   profile,
	}, nil
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

// reweight applies one pass of criticality-based net weighting.
func reweight(nl *netlist.Netlist, pos []geom.Point, period float64) error {
	timing, err := sta.Analyze(nl, pos, sta.Options{ClockPeriodNs: period})
	if err != nil {
		return fmt.Errorf("core: estimate STA: %w", err)
	}
	for ni, w := range sta.NetCriticality(nl, timing, 3) {
		nl.Nets[ni].Weight = w
	}
	return nil
}

// timingPolish is the criticality-weighted detailed-placement pass every
// flow ends with: nets are temporarily reweighted by slack so the window
// moves/swaps target the critical paths rather than raw HPWL, then the
// weights are restored so routing sees the flow's own weighting. Capacity
// legality is preserved exactly, so it is safe to run after legalization
// and before the final DRC gate.
func timingPolish(dev *fpga.Device, nl *netlist.Netlist, pos []geom.Point, period float64, seed int64) error {
	restoreW := snapshotWeights(nl)
	defer restoreW()
	// Two reweight+refine rounds: the first round's moves change which nets
	// are critical, and the refreshed weights let cells that started far
	// from their slack-optimal spot keep traveling instead of freezing at
	// the window boundary.
	for round := 0; round < 2; round++ {
		if err := reweight(nl, pos, period); err != nil {
			return err
		}
		if detailed.Refine(dev, nl, pos, detailed.Options{Passes: 2, Seed: seed}) <= 0 {
			break
		}
	}
	return nil
}

// snapshotWeights saves net weights and returns a restorer, so flows that
// reweight do not leak state into subsequent flows on the same netlist.
func snapshotWeights(nl *netlist.Netlist) func() {
	saved := make([]float64, len(nl.Nets))
	for i, n := range nl.Nets {
		saved[i] = n.Weight
	}
	return func() {
		for i, n := range nl.Nets {
			n.Weight = saved[i]
		}
	}
}

// RunRSAD executes the R-SAD-style comparison flow (§I related work [26]):
// prototype placement, then the systolic-array lattice placer snaps every
// DSP onto a regular grid, then one incremental re-placement of the other
// components, routing and timing. The extension experiment uses it to test
// the paper's claim that array-specialized placement does not generalize to
// diverse accelerator architectures.
func RunRSAD(ctx context.Context, dev *fpga.Device, nl *netlist.Netlist, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	period := 1000.0 / cfg.ClockMHz
	restore := snapshotWeights(nl)
	defer restore()
	gate := &gater{level: cfg.Validate, dev: dev, nl: nl, flow: "rsad", corrupt: cfg.corruptHook}

	total0 := time.Now()
	if err := checkCtx(ctx, "rsad", "prototype"); err != nil {
		return nil, err
	}
	t0 := time.Now()
	proto, err := placer.PlaceContext(ctx, dev, nl, placer.Options{Mode: placer.ModeVivado, Seed: cfg.Seed,
		GPIterations: cfg.PrototypeGPIters, GP: cfg.GP, Stages: cfg.Stages})
	if err != nil {
		return nil, stageErr("rsad prototype", err)
	}
	if err := gate.placement(ValidateEveryStage, "prototype", proto.Pos, proto.SiteOfDSP); err != nil {
		return nil, err
	}
	profile := Profile{Prototype: time.Since(t0)}

	if err := checkCtx(ctx, "rsad", "lattice"); err != nil {
		return nil, err
	}
	t1 := time.Now()
	siteOf, err := rsad.Place(dev, nl, proto.Pos)
	if err != nil {
		return nil, fmt.Errorf("core: rsad lattice: %w", err)
	}
	if err := gate.assignment(ValidateEveryStage, "lattice", siteOf); err != nil {
		return nil, err
	}
	profile.DSPPlace = time.Since(t1)

	if err := checkCtx(ctx, "rsad", "replace"); err != nil {
		return nil, err
	}
	t2 := time.Now()
	res, err := placer.PlaceContext(ctx, dev, nl, placer.Options{
		Mode: placer.ModeDSPlacer, Seed: cfg.Seed + 1,
		FixedSites: siteOf, GPIterations: cfg.ReplaceGPIters, Warm: proto.Pos,
		GP: cfg.GP, Stages: cfg.Stages,
	})
	if err != nil {
		return nil, stageErr("rsad re-placement", err)
	}
	if err := timingPolish(dev, nl, res.Pos, period, cfg.Seed); err != nil {
		return nil, err
	}
	if err := gate.placement(ValidateFinal, "final", res.Pos, res.SiteOfDSP); err != nil {
		return nil, err
	}
	profile.OtherPlace = time.Since(t2)

	if err := checkCtx(ctx, "rsad", "routing"); err != nil {
		return nil, err
	}
	t3 := time.Now()
	rr := route.Route(dev, nl, res.Pos, cfg.RouteOpts)
	profile.Routing = time.Since(t3)
	timing, err := sta.Analyze(nl, res.Pos, sta.Options{ClockPeriodNs: period, Congestion: rr.NetCongestion})
	if err != nil {
		return nil, fmt.Errorf("core: rsad STA: %w", err)
	}
	profile.Total = time.Since(total0)
	recordProfile(cfg.Stages, profile)
	return &Result{
		Flow:      "rsad",
		Pos:       res.Pos,
		SiteOfDSP: res.SiteOfDSP,
		WNS:       timing.WNS,
		TNS:       timing.TNS,
		HPWL:      metrics.HPWLUnit(nl, res.Pos),
		RoutedWL:  rr.Wirelength,
		Overflow:  rr.OverflowEdges,
		Profile:   profile,
	}, nil
}
