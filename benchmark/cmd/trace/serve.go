package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dsplacer"
	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
	"dsplacer/internal/netlist"
	"dsplacer/internal/server"
)

// serveStats are serve-mix's service-layer numbers, read from the spans
// around the HTTP calls, the job documents and /metrics.
type serveStats struct {
	submitMS, fetchMS, decodeMS []float64
	queueWaitMS, runMS          []float64
	hitMS, missMS               []float64
	ops, hits                   int
	distinct, placements        int
}

func (s *serveStats) metrics(v map[string]float64) {
	med := measure.Median
	v["cache.hit_p50_ms"] = med(s.hitMS)
	v["cache.hit_p90_ms"] = percentile(s.hitMS, 0.9)
	v["cache.miss_p50_ms"] = med(s.missMS)
	v["server.submit_ms_p50"] = med(s.submitMS)
	v["server.fetch_ms_p50"] = med(s.fetchMS)
	v["netlist.decode_ms_p50"] = med(s.decodeMS)
	v["jobs.queue_wait_ms_p50"] = med(s.queueWaitMS)
	v["jobs.queue_wait_ms_p90"] = percentile(s.queueWaitMS, 0.9)
	v["jobs.run_ms_p50"] = med(s.runMS)
	v["cache.hit_ratio"] = ratio(s.hits, s.ops)
	v["cache.useful_ratio"] = ratio(s.distinct, s.placements)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// serveMix traces one pass of the request stream through the HTTP API,
// runs a second pass untraced, times netlist.Read on every traced op's
// netlist, and replays every traced miss through the composed flow: the
// replay must reproduce the server's result.
func (r *run) serveMix(ctx context.Context) error {
	set, err := workload.NewServeSet(ctx)
	if err != nil {
		return err
	}
	defer set.Close()
	first := make(map[string]workload.ServeQoR)
	r.serve.distinct = 1 // the warm-up request

	var traced [][]workload.ServeOp
	var tracedReqs []*workload.ServeRequest
	var docs [][]*server.JobDoc
	for p := 0; p < 2; p++ {
		reqs, err := set.Requests(p)
		if err != nil {
			return err
		}
		loops := workload.Loops(reqs, r.seed, p)
		if r.smoke {
			loops = [][]workload.ServeOp{loops[0][:1]}
		}
		total := &r.plain
		if p == 0 {
			total = &r.traced
		}
		var pd [][]*server.JobDoc
		r.timed(total, p == 0, func() { pd = r.servePass(ctx, set, loops, p == 0) })
		for ci, loop := range loops {
			for i, op := range loop {
				doc := pd[ci][i]
				if doc == nil {
					continue // failed in flight; already in the ledger
				}
				name := fmt.Sprintf("%s hit=%v (pass %d, client %d, op %d)", op.Req.Key, op.Hit, p, ci, i)
				if err := workload.CheckServe(op, doc, first); err != nil {
					r.ledger.Fail(name, err)
					continue
				}
				r.ledger.Pass()
				if !op.Hit {
					r.serve.distinct++
				}
			}
		}
		if p == 0 {
			traced, tracedReqs, docs = loops, reqs, pd
		}
	}
	r.serveJobs(traced, docs)
	if err := r.serveDecode(traced); err != nil {
		return err
	}
	if err := r.serveReplay(ctx, tracedReqs, first); err != nil {
		return err
	}
	c := set.NewClient()
	defer c.Close()
	text, err := c.Metrics(ctx)
	if err != nil {
		return err
	}
	r.serve.placements, err = counter(text, "dsplacer_placements_total")
	return err
}

// servePass runs the clients' loops; with traced set, each op is a root
// span with a child span per HTTP call. It returns the job documents, nil
// where an op failed (those are reported to the ledger here).
func (r *run) servePass(ctx context.Context, set *workload.ServeSet, loops [][]workload.ServeOp, traced bool) [][]*server.JobDoc {
	docs := make([][]*server.JobDoc, len(loops))
	errs := make([][]error, len(loops))
	for ci, loop := range loops {
		docs[ci] = make([]*server.JobDoc, len(loop))
		errs[ci] = make([]error, len(loop))
	}
	var mu sync.Mutex // guards the latency samples
	set.Drive(loops, func(c *workload.Client, ci, i int) {
		op := loops[ci][i]
		if !traced {
			docs[ci][i], errs[ci][i] = c.Place(ctx, op.Req.Body)
			return
		}
		opID := ci<<16 + i
		sw := measure.Start()
		root := r.tr.Begin(opID, -1, "flow.serve")
		doc, submit, fetch, err := r.tracedPlace(ctx, c, opID, root, op.Req.Body)
		r.tr.End(root)
		d := ms(sw.Net())
		docs[ci][i], errs[ci][i] = doc, err
		if err != nil {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		r.opMS = append(r.opMS, d)
		if op.Hit {
			r.serve.hitMS = append(r.serve.hitMS, d)
		} else {
			r.serve.missMS = append(r.serve.missMS, d)
		}
		r.serve.submitMS = append(r.serve.submitMS, ms(submit))
		r.serve.fetchMS = append(r.serve.fetchMS, ms(fetch))
	})
	for ci, loop := range loops {
		for i, op := range loop {
			if errs[ci][i] != nil {
				r.ledger.Fail(fmt.Sprintf("%s hit=%v (client %d, op %d)", op.Req.Key, op.Hit, ci, i), errs[ci][i])
				docs[ci][i] = nil
			}
		}
	}
	return docs
}

// tracedPlace is Client.Place with a span around each call.
func (r *run) tracedPlace(ctx context.Context, c *workload.Client, op, root int, body []byte) (doc *server.JobDoc, submit, fetch time.Duration, err error) {
	span := func(name string, fn func()) time.Duration {
		id := r.tr.Begin(op, root, name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		r.tr.End(id)
		return d
	}
	var id string
	submit = span("server.submit", func() { id, err = c.Submit(ctx, body) })
	if err != nil {
		return nil, 0, 0, err
	}
	span("server.events", func() { _, err = c.Wait(ctx, id) })
	if err != nil {
		return nil, 0, 0, err
	}
	fetch = span("server.fetch", func() { doc, err = c.Fetch(ctx, id) })
	return doc, submit, fetch, err
}

// serveJobs reads queue wait and run time from the traced job documents.
func (r *run) serveJobs(loops [][]workload.ServeOp, docs [][]*server.JobDoc) {
	for ci := range loops {
		for _, doc := range docs[ci] {
			if doc == nil {
				continue
			}
			r.serve.ops++
			if doc.Result != nil && doc.Result.Cached {
				r.serve.hits++
			}
			if doc.Started != nil && doc.Finished != nil {
				r.serve.queueWaitMS = append(r.serve.queueWaitMS, ms(doc.Started.Sub(doc.Created)))
				r.serve.runMS = append(r.serve.runMS, ms(doc.Finished.Sub(*doc.Started)))
			}
		}
	}
}

// serveDecode times netlist.Read, the server's decode path, on the
// netlist of every traced op. Each decode is a root span of its own.
func (r *run) serveDecode(loops [][]workload.ServeOp) error {
	n := 0
	for _, loop := range loops {
		for _, op := range loop {
			opID := 1<<20 + n
			n++
			root := r.tr.Begin(opID, -1, "flow.decode")
			id := r.tr.Begin(opID, root, "netlist.Read")
			t0 := time.Now()
			_, err := netlist.Read(bytes.NewReader(op.Req.Design.JSON))
			d := time.Since(t0)
			r.tr.End(id)
			r.tr.End(root)
			if err != nil {
				return fmt.Errorf("decode %s: %w", op.Req.Design.Name, err)
			}
			r.serve.decodeMS = append(r.serve.decodeMS, ms(d))
		}
	}
	return nil
}

// serveReplay runs every request of the traced pass through the composed
// DSPlacer flow on the netlist the server decoded and compares it with
// the job's result, the key's first computation.
func (r *run) serveReplay(ctx context.Context, reqs []*workload.ServeRequest, first map[string]workload.ServeQoR) error {
	dev, err := dsplacer.LookupDevice(workload.ServeDevice)
	if err != nil {
		return err
	}
	for n, req := range reqs {
		want, ok := first[req.Key]
		if !ok {
			continue // not served, or smoke mode
		}
		nl, err := netlist.Read(bytes.NewReader(req.Design.JSON))
		if err != nil {
			return fmt.Errorf("decode %s: %w", req.Design.Name, err)
		}
		opID := 2<<20 + n
		name := "replay " + req.Key
		root := r.tr.Begin(opID, -1, "flow.replay")
		res, err := r.k.dsplacerFlow(ctx, opID, root, dev, nl, req.Config())
		r.tr.End(root)
		fop := workload.FlowOp{Design: req.Design.Name, Flow: workload.FlowDSPlacer, NL: nl, Cfg: req.Config()}
		if err == nil {
			err = workload.CheckFlow(dev, fop, res)
		}
		if err != nil {
			r.ledger.Fail(name, err)
			continue
		}
		r.hpwl = append(r.hpwl, want.HPWL)
		r.crit = append(r.crit, fop.Period()-want.WNS)
		r.fidelity(name, CompareQoR(qorOf(res), QoR{HPWL: want.HPWL, WNS: want.WNS, TNS: want.TNS}))
	}
	return nil
}

// counter reads one unlabelled counter from Prometheus text.
func counter(text, name string) (int, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		v, ok := strings.CutPrefix(sc.Text(), name+" ")
		if ok {
			return strconv.Atoi(strings.TrimSpace(v))
		}
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
