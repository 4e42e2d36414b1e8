package main

import (
	"context"
	"fmt"
	"slices"

	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
)

// extractBench runs extract-gcn: each op identifies one netlist's datapath
// DSPs with the GCN and builds their DSP graph.
type extractBench struct {
	seed      int64
	set       *workload.ExtractSet
	ops       []workload.ExtractOp
	last      []extractRun
	first     [][]int // identified ids of each op's first checked run
	matched   int     // DSPs labelled as their ground truth, first runs
	dsps      int     // DSPs classified, first runs
	latencyMS []float64
}

type extractRun struct {
	ids []int
	err error
}

func newExtractBench(opt options) (*extractBench, error) {
	set, err := workload.NewExtractSet(context.Background(), opt.model)
	if err != nil {
		return nil, err
	}
	ops := smokeOps(set.Ops, opt.smoke)
	return &extractBench{seed: opt.seed, set: set, ops: ops,
		last: make([]extractRun, len(ops)), first: make([][]int, len(ops))}, nil
}

func (b *extractBench) pass(ctx context.Context, p int) error {
	for _, i := range workload.Order(len(b.ops), b.seed, p) {
		sw := measure.Start()
		ids, _, err := b.set.Run(ctx, b.ops[i])
		b.latencyMS = append(b.latencyMS, ms(sw.Net()))
		b.last[i] = extractRun{ids: ids, err: err}
	}
	return nil
}

func (b *extractBench) check(p int, l *measure.Ledger) {
	for i, op := range b.ops {
		if err := b.checkOne(i, op); err != nil {
			l.Fail(fmt.Sprintf("%s (pass %d)", op.Name, p), err)
			continue
		}
		l.Pass()
	}
}

func (b *extractBench) checkOne(i int, op workload.ExtractOp) error {
	run := b.last[i]
	if run.err != nil {
		return run.err
	}
	matched, err := workload.CheckExtract(op, run.ids)
	if err != nil {
		return err
	}
	if b.first[i] == nil {
		b.first[i] = run.ids
		b.matched += matched
		b.dsps += len(op.DSPs)
		return nil
	}
	if !slices.Equal(run.ids, b.first[i]) {
		return fmt.Errorf("identified set differs from the first run's (%d vs %d DSPs)", len(run.ids), len(b.first[i]))
	}
	return nil
}

func (b *extractBench) latencies() []float64 { return b.latencyMS }

// summary reports the latency tail and the GCN's accuracy against the
// generator's labels; the accuracy must read the same in every run.
func (b *extractBench) summary() (string, error) {
	if b.dsps == 0 {
		return "", fmt.Errorf("dp_accuracy: no extraction passed its check")
	}
	return fmt.Sprintf("%s, dp_accuracy %v over %d DSPs", tail("op", b.latencyMS, 0.9),
		float64(b.matched)/float64(b.dsps), b.dsps), nil
}

func (b *extractBench) close() error { return nil }

// tail formats the q-quantile of ms as <name>_p<q>_ms, or says that too
// few samples lie above it.
func tail(name string, ms []float64, q float64) string {
	label := fmt.Sprintf("%s_p%d_ms", name, int(q*100+0.5))
	v, ok := measure.Percentile(ms, q)
	if !ok {
		return fmt.Sprintf("%s n/a (%d samples)", label, len(ms))
	}
	return fmt.Sprintf("%s %.3f (%d samples)", label, v, len(ms))
}
