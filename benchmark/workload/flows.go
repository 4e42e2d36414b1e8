// Package workload defines the benchmark's workloads: the inputs each one
// generates, its fixed op set, and the check every op's output must pass.
// The end-to-end runner and the traced runner both build their ops here,
// so the two measure the same work on the same inputs.
//
// The workload seed never changes an input's content: it permutes the
// order in which a pass runs its ops (and, in serve-mix, the order of the
// request stream). Each design's QoR is therefore the same in every run,
// and a QoR metric that moves between runs is a determinism defect, not
// seed noise.
package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"dsplacer"
	"dsplacer/internal/drc"
)

// Workload names, as passed to --workload.
const (
	Table2Mini = "table2-mini"
	DSPDense   = "dsp-dense"
	ExtractGCN = "extract-gcn"
	ServeMix   = "serve-mix"
)

// Names lists every workload in the order BENCHMARK.json declares them.
var Names = []string{Table2Mini, DSPDense, ExtractGCN, ServeMix}

// Paper budget shared by every flow op (Table II: λ = 100, 50 MCF
// iterations, two incremental rounds).
const (
	paperLambda    = 100
	paperMCFIters  = 50
	paperRounds    = 2
	flowSeedOffset = 1 // cmd/experiments' default -seed, added to each spec's seed
)

// Flow names of a FlowOp.
const (
	FlowVivado   = "vivado"
	FlowAMF      = "amf"
	FlowDSPlacer = "dsplacer"
)

// FlowOp is one placement flow on one design.
type FlowOp struct {
	Design string
	Flow   string
	NL     *dsplacer.Netlist
	Cfg    dsplacer.Config
}

// Name identifies the op in failure reports.
func (op FlowOp) Name() string { return op.Design + "/" + op.Flow }

// Run executes the op through the program's own entry point.
func (op FlowOp) Run(ctx context.Context, dev *dsplacer.Device) (*dsplacer.Result, error) {
	switch op.Flow {
	case FlowDSPlacer:
		return dsplacer.RunContext(ctx, dev, op.NL, op.Cfg)
	case FlowVivado:
		return dsplacer.RunBaselineContext(ctx, dev, op.NL, dsplacer.ModeVivado, op.Cfg)
	case FlowAMF:
		return dsplacer.RunBaselineContext(ctx, dev, op.NL, dsplacer.ModeAMF, op.Cfg)
	}
	return nil, fmt.Errorf("unknown flow %q", op.Flow)
}

// Period is the op's clock period in ns.
func (op FlowOp) Period() float64 { return 1000 / op.Cfg.ClockMHz }

// FlowSet is the input of a flow workload (table2-mini or dsp-dense).
type FlowSet struct {
	Dev *dsplacer.Device
	Ops []FlowOp
}

// miniSpecs is Table I at the 1/16 scale of cmd/experiments -mini: logic
// and flip-flops divided by 16, BRAM and DSPs by 8.
func miniSpecs() []dsplacer.Spec {
	full := dsplacer.TableISpecs()
	out := make([]dsplacer.Spec, len(full))
	for i, s := range full {
		out[i] = dsplacer.Spec{
			Name: "mini-" + s.Name, LUT: s.LUT / 16, LUTRAM: s.LUTRAM / 16, FF: s.FF / 16,
			BRAM: s.BRAM / 8, DSP: s.DSP / 8, FreqMHz: s.FreqMHz, Seed: s.Seed,
		}
	}
	return out
}

// denseSpecs keeps the mini logic of the first three Table I designs and
// gives them 4× the mini DSP count (98, 173 and 321 DSPs on 6–7k cells),
// so the DSP assignment dominates the flow.
func denseSpecs() []dsplacer.Spec {
	specs := miniSpecs()[:3]
	full := dsplacer.TableISpecs()
	for i := range specs {
		specs[i].Name = "dense-" + full[i].Name
		specs[i].DSP = full[i].DSP / 2
	}
	return specs
}

func flowConfig(spec dsplacer.Spec) dsplacer.Config {
	return dsplacer.Config{
		ClockMHz: spec.FreqMHz, Lambda: paperLambda,
		MCFIterations: paperMCFIters, Rounds: paperRounds,
		Seed: flowSeedOffset + spec.Seed,
	}
}

// NewFlowSet generates the designs of a flow workload on zcu104 and runs
// one warm-up flow on a design outside them. table2-mini runs every mini
// Table I design under the two baselines and DSPlacer; dsp-dense runs
// DSPlacer alone on the DSP-dense designs.
func NewFlowSet(ctx context.Context, name string) (*FlowSet, error) {
	dev, err := dsplacer.LookupDevice("zcu104")
	if err != nil {
		return nil, err
	}
	var specs []dsplacer.Spec
	var flows []string
	switch name {
	case Table2Mini:
		specs, flows = miniSpecs(), []string{FlowVivado, FlowAMF, FlowDSPlacer}
	case DSPDense:
		specs, flows = denseSpecs(), []string{FlowDSPlacer}
	default:
		return nil, fmt.Errorf("%q is not a flow workload", name)
	}
	set := &FlowSet{Dev: dev}
	for _, spec := range specs {
		nl, err := dsplacer.Generate(spec, dev)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
		}
		for _, f := range flows {
			set.Ops = append(set.Ops, FlowOp{Design: spec.Name, Flow: f, NL: nl, Cfg: flowConfig(spec)})
		}
	}
	spec := dsplacer.SmallSpec()
	nl, err := dsplacer.Generate(spec, dev)
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", spec.Name, err)
	}
	warm := FlowOp{Design: spec.Name, Flow: FlowDSPlacer, NL: nl, Cfg: flowConfig(spec)}
	if _, err := warm.Run(ctx, dev); err != nil {
		return nil, fmt.Errorf("warm-up %s: %w", warm.Name(), err)
	}
	return set, nil
}

// CheckFlow is the output check of a flow op: the final placement is
// DRC-clean and the QoR figures are finite and positive.
func CheckFlow(dev *dsplacer.Device, op FlowOp, res *dsplacer.Result) error {
	if v := drc.Check(dev, op.NL, res.Pos, res.SiteOfDSP); len(v) > 0 {
		return fmt.Errorf("%d DRC violations, first: %v", len(v), v[0])
	}
	if !(res.HPWL > 0) || math.IsInf(res.HPWL, 0) {
		return fmt.Errorf("HPWL %v is not finite and positive", res.HPWL)
	}
	if crit := op.Period() - res.WNS; !(crit > 0) || math.IsInf(crit, 0) {
		return fmt.Errorf("critical path %v ns is not finite and positive", crit)
	}
	return nil
}

// Order returns the op order of one pass: a permutation of 0..n-1 drawn
// from the workload seed and the pass index.
func Order(n int, seed int64, pass int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(pass))).Perm(n)
}
