package main

import (
	"context"
	"fmt"

	"dsplacer"
	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
)

// flowBench runs table2-mini or dsp-dense: each op is one flow through
// dsplacer.Run or RunBaseline, one at a time.
type flowBench struct {
	seed int64
	set  *workload.FlowSet
	ops  []workload.FlowOp
	last []flowRun // outputs of the latest pass, by op index
	qor  []*flowQoR
	lat  []float64
}

type flowRun struct {
	res *dsplacer.Result
	err error
}

// flowQoR is an op's QoR from its first checked run; later passes must
// reproduce it bit for bit.
type flowQoR struct {
	hpwl, wns, crit float64
}

func newFlowBench(name string, opt options) (*flowBench, error) {
	set, err := workload.NewFlowSet(context.Background(), name)
	if err != nil {
		return nil, err
	}
	ops := smokeOps(set.Ops, opt.smoke)
	return &flowBench{seed: opt.seed, set: set, ops: ops,
		last: make([]flowRun, len(ops)), qor: make([]*flowQoR, len(ops))}, nil
}

func (b *flowBench) pass(ctx context.Context, p int) error {
	for _, i := range workload.Order(len(b.ops), b.seed, p) {
		sw := measure.Start()
		res, err := b.ops[i].Run(ctx, b.set.Dev)
		b.lat = append(b.lat, ms(sw.Net()))
		b.last[i] = flowRun{res: res, err: err}
	}
	return nil
}

func (b *flowBench) latencies() []float64 { return b.lat }

func (b *flowBench) check(p int, l *measure.Ledger) {
	for i, op := range b.ops {
		run := b.last[i]
		b.last[i] = flowRun{}
		if err := checkFlowRun(b.set.Dev, op, run, &b.qor[i]); err != nil {
			l.Fail(fmt.Sprintf("%s (pass %d)", op.Name(), p), err)
			continue
		}
		l.Pass()
	}
}

// checkFlowRun checks one flow output and records or compares its QoR.
func checkFlowRun(dev *dsplacer.Device, op workload.FlowOp, run flowRun, first **flowQoR) error {
	if run.err != nil {
		return run.err
	}
	if err := workload.CheckFlow(dev, op, run.res); err != nil {
		return err
	}
	q := &flowQoR{hpwl: run.res.HPWL, wns: run.res.WNS, crit: op.Period() - run.res.WNS}
	if *first == nil {
		*first = q
		return nil
	}
	if *q != **first {
		return fmt.Errorf("QoR %+v differs from the first run's %+v", *q, **first)
	}
	return nil
}

// summary reports the QoR geomeans; they must read the same in every run.
func (b *flowBench) summary() (string, error) {
	var hpwl, crit []float64
	for _, q := range b.qor { // op order, so the geomeans' bits do not depend on the seed
		if q != nil {
			hpwl = append(hpwl, q.hpwl)
			crit = append(crit, q.crit)
		}
	}
	gh, err := measure.Geomean(hpwl)
	if err != nil {
		return "", fmt.Errorf("hpwl_geomean: %w", err)
	}
	gc, err := measure.Geomean(crit)
	if err != nil {
		return "", fmt.Errorf("crit_path_ns_geomean: %w", err)
	}
	return fmt.Sprintf("hpwl_geomean %v, crit_path_ns_geomean %v over %d ops", gh, gc, len(hpwl)), nil
}

func (b *flowBench) close() error { return nil }
