package main

import (
	"context"
	"fmt"

	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
	"dsplacer/internal/server"
)

// serveBench runs serve-mix: two closed-loop clients drive an in-process
// dsplacerd with fresh placements (misses) and re-submissions of the
// requests they placed (hits).
type serveBench struct {
	seed   int64
	smoke  bool
	set    *workload.ServeSet
	lat    []float64
	loops  [][]workload.ServeOp // the latest pass's ops, per client
	docs   [][]*server.JobDoc
	errs   [][]error
	first  map[string]workload.ServeQoR
	hitMS  []float64
	missMS []float64
}

func newServeBench(opt options) (*serveBench, error) {
	set, err := workload.NewServeSet(context.Background())
	if err != nil {
		return nil, err
	}
	return &serveBench{seed: opt.seed, smoke: opt.smoke, set: set, first: make(map[string]workload.ServeQoR)}, nil
}

// pass encodes pass p's requests, then runs the clients. The encoding is
// inside the pass's stopwatch but tiny next to the ops (a few ms).
func (b *serveBench) pass(ctx context.Context, p int) error {
	reqs, err := b.set.Requests(p)
	if err != nil {
		return err
	}
	b.loops = workload.Loops(reqs, b.seed, p)
	if b.smoke {
		b.loops = [][]workload.ServeOp{b.loops[0][:1]}
	}
	b.docs = make([][]*server.JobDoc, len(b.loops))
	b.errs = make([][]error, len(b.loops))
	lat := make([][]float64, len(b.loops))
	for ci, loop := range b.loops {
		b.docs[ci] = make([]*server.JobDoc, len(loop))
		b.errs[ci] = make([]error, len(loop))
		lat[ci] = make([]float64, len(loop))
	}
	b.set.Drive(b.loops, func(c *workload.Client, ci, i int) {
		sw := measure.Start()
		b.docs[ci][i], b.errs[ci][i] = c.Place(ctx, b.loops[ci][i].Req.Body)
		lat[ci][i] = ms(sw.Net())
	})
	for ci, loop := range b.loops {
		for i, op := range loop {
			if b.errs[ci][i] != nil {
				continue
			}
			b.lat = append(b.lat, lat[ci][i])
			if op.Hit {
				b.hitMS = append(b.hitMS, lat[ci][i])
			} else {
				b.missMS = append(b.missMS, lat[ci][i])
			}
		}
	}
	return nil
}

func (b *serveBench) check(p int, l *measure.Ledger) {
	for ci, loop := range b.loops {
		for i, op := range loop {
			err := b.errs[ci][i]
			if err == nil {
				err = workload.CheckServe(op, b.docs[ci][i], b.first)
			}
			if err != nil {
				l.Fail(fmt.Sprintf("%s hit=%v (pass %d, client %d, op %d)", op.Req.Key, op.Hit, p, ci, i), err)
				continue
			}
			l.Pass()
		}
	}
	b.docs, b.errs = nil, nil
}

func (b *serveBench) latencies() []float64 { return b.lat }

// summary reports latency by cache outcome.
func (b *serveBench) summary() (string, error) {
	return fmt.Sprintf("hit_p50_ms %.3f, %s; miss_p50_ms %.3f (%d misses)", measure.Median(b.hitMS),
		tail("hit", b.hitMS, 0.9), measure.Median(b.missMS), len(b.missMS)), nil
}

func (b *serveBench) close() error { return b.set.Close() }
