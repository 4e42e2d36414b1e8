// Command trace is the benchmark's traced run. It rebuilds each op of a
// workload from public layer calls (placer, assign, legalize, detailed,
// sta, route, dspgraph, features, gcn, and the dsplacerd HTTP API), puts a
// span around every call, and reports per-layer numbers as the last line
// of standard output:
//
//	trace -workload table2-mini -seed 1 -trace 1 -trace-out trace.json
//
// Every composed op is checked against the program's own entry point on
// the same input (core.Run, core.RunBaseline, GCNIdentifier.Identify, or
// the server's job result). Any mismatch sets trace.valid to 0: the
// layer numbers then describe a flow the program no longer runs.
//
// The run measures one traced pass and one untraced pass whatever
// -seconds says; trace.overhead_ratio is the first over the second.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"dsplacer"
	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
	"dsplacer/internal/placer"
)

func main() {
	name := flag.String("workload", "", "workload: table2-mini, dsp-dense, extract-gcn or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed (permutes op and request order)")
	flag.Int("seconds", 20, "accepted for the benchmark's command line; the traced run makes one pass of each kind")
	trace := flag.Int("trace", 1, "must be 1; the end-to-end run is a separate program")
	model := flag.String("model", "benchmark/model/gcn-mini-auto.json", "GCN artifact for extract-gcn")
	out := flag.String("trace-out", "", "write the spans here as Chrome trace-event JSON")
	smoke := flag.Bool("smoke", false, "trace one op of the workload")
	flag.Parse()
	if *trace != 1 {
		fatal(errors.New("-trace 0 is served by the end-to-end runner"))
	}
	r := &run{name: *name, seed: *seed, smoke: *smoke, tr: NewTracer(), ledger: &measure.Ledger{Workload: *name}}
	r.k = &composer{tr: r.tr}
	if err := r.do(context.Background(), *model); err != nil {
		fatal(err)
	}
	spans := r.tr.Spans()
	if *out != "" {
		if err := WriteChrome(*out, spans); err != nil {
			fatal(err)
		}
	}
	res := measure.Result{
		Correct: r.ledger.Failed == 0, Attempted: r.ledger.Attempted, Failed: r.ledger.Failed,
		Metrics: r.metrics(spans),
	}
	if err := res.Print(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace:", err)
	os.Exit(1)
}

// run is one traced run's state.
type run struct {
	name   string
	seed   int64
	smoke  bool
	tr     *Tracer
	k      *composer
	ledger *measure.Ledger

	traced, plain time.Duration    // traced and untraced pass time
	noise         measure.Counters // over the traced ops
	mismatches    int              // composed ops that diverged from the program
	serve         serveStats

	// The workloads' own figures, which the end-to-end runner prints only
	// to standard error: traced op latencies, flow QoR by op index, and
	// the DSPs the GCN labelled as their ground truth.
	opMS            []float64
	hpwl, crit      []float64
	matched, dspsIn int
}

func (r *run) do(ctx context.Context, model string) error {
	switch r.name {
	case workload.Table2Mini, workload.DSPDense:
		return r.flows(ctx)
	case workload.ExtractGCN:
		return r.extract(ctx, model)
	case workload.ServeMix:
		return r.serveMix(ctx)
	}
	return fmt.Errorf("unknown workload %q (want one of %v)", r.name, workload.Names)
}

func (r *run) ops(n int) []int {
	if r.smoke {
		return []int{0}
	}
	return workload.Order(n, r.seed, 0)
}

// timed runs fn, adding its net time (measure.Stopwatch) to *total and,
// when traced, its process and host counters to the run's noise
// accounting.
func (r *run) timed(total *time.Duration, traced bool, fn func()) {
	c0 := measure.Sample()
	sw := measure.Start()
	fn()
	*total += sw.Net()
	if traced {
		r.noise = r.noise.Add(measure.Sample().Sub(c0))
	}
}

// fidelity records a comparison's verdict.
func (r *run) fidelity(op string, f Fidelity) {
	if f.TNSBits {
		r.k.c.tnsBitMismatches++
	}
	if f.Err != nil {
		r.mismatches++
		fmt.Fprintf(os.Stderr, "FIDELITY workload=%s op=%s: %v\n", r.name, op, f.Err)
	}
}

func (r *run) flows(ctx context.Context) error {
	set, err := workload.NewFlowSet(ctx, r.name)
	if err != nil {
		return err
	}
	qor := make([]*QoR, len(set.Ops))
	defer func() { // op order, so the geomeans' bits do not depend on the seed
		for i, q := range qor {
			if q != nil {
				r.hpwl = append(r.hpwl, q.HPWL)
				r.crit = append(r.crit, set.Ops[i].Period()-q.WNS)
			}
		}
	}()
	for _, i := range r.ops(len(set.Ops)) {
		op := set.Ops[i]
		var got, want *composedResult
		r.timed(&r.traced, true, func() {
			sw := measure.Start()
			root := r.tr.Begin(i, -1, "flow."+op.Name())
			got = r.composeFlow(ctx, i, root, set, op)
			r.tr.End(root)
			r.opMS = append(r.opMS, ms(sw.Net()))
		})
		r.timed(&r.plain, false, func() {
			res, err := op.Run(ctx, set.Dev)
			want = &composedResult{res: res, err: err}
		})
		if r.checked(op.Name(), flowErr(set, op, got), flowErr(set, op, want)) {
			q := qorOf(want.res)
			qor[i] = &q
			r.fidelity(op.Name(), CompareQoR(qorOf(got.res), q))
		}
	}
	return nil
}

type composedResult struct {
	res *dsplacer.Result
	err error
}

func (r *run) composeFlow(ctx context.Context, i, root int, set *workload.FlowSet, op workload.FlowOp) *composedResult {
	var res *dsplacer.Result
	var err error
	switch op.Flow {
	case workload.FlowDSPlacer:
		res, err = r.k.dsplacerFlow(ctx, i, root, set.Dev, op.NL, op.Cfg)
	case workload.FlowVivado:
		res, err = r.k.baselineFlow(ctx, i, root, set.Dev, op.NL, placer.ModeVivado, op.Cfg)
	case workload.FlowAMF:
		res, err = r.k.baselineFlow(ctx, i, root, set.Dev, op.NL, placer.ModeAMF, op.Cfg)
	default:
		err = fmt.Errorf("unknown flow %q", op.Flow)
	}
	return &composedResult{res: res, err: err}
}

// checked records one op whose composed and program outputs were
// checked; it returns whether both passed, so they can be compared.
func (r *run) checked(op string, composed, program error) bool {
	switch {
	case composed != nil:
		r.ledger.Fail(op+" (composed)", composed)
	case program != nil:
		r.ledger.Fail(op+" (program)", program)
	default:
		r.ledger.Pass()
		return true
	}
	return false
}

// flowErr is the flow output check of one result.
func flowErr(set *workload.FlowSet, op workload.FlowOp, c *composedResult) error {
	if c.err != nil {
		return c.err
	}
	return workload.CheckFlow(set.Dev, op, c.res)
}

func qorOf(res *dsplacer.Result) QoR { return QoR{HPWL: res.HPWL, WNS: res.WNS, TNS: res.TNS} }

func (r *run) extract(ctx context.Context, model string) error {
	set, err := workload.NewExtractSet(ctx, model)
	if err != nil {
		return err
	}
	for _, i := range r.ops(len(set.Ops)) {
		op := set.Ops[i]
		var got, want []int
		var gerr, werr error
		r.timed(&r.traced, true, func() {
			sw := measure.Start()
			root := r.tr.Begin(i, -1, "flow."+op.Name)
			got, gerr = r.k.identify(ctx, i, root, op.NL, set.Ident.Model, set.Ident.FeatureCfg)
			if gerr == nil {
				r.k.dspgraph(i, root, op.NL, got)
			}
			r.tr.End(root)
			r.opMS = append(r.opMS, ms(sw.Net()))
		})
		r.timed(&r.plain, false, func() { want, _, werr = set.Run(ctx, op) })
		if r.checked(op.Name, extractErr(op, got, gerr), extractErr(op, want, werr)) {
			matched, _ := workload.CheckExtract(op, want)
			r.matched += matched
			r.dspsIn += len(op.DSPs)
			r.fidelity(op.Name, CompareIDs(got, want))
		}
	}
	return nil
}

// extractErr is the extraction output check of one result.
func extractErr(op workload.ExtractOp, ids []int, err error) error {
	if err != nil {
		return err
	}
	_, err = workload.CheckExtract(op, ids)
	return err
}

// perLayer lists every per-layer metric in the order BENCHMARK.json
// declares them; each trace run reports all of them, 0 where a workload
// does not reach the layer.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layerNames {
		out = append(out,
			metricDef{l + ".calls", "count"}, metricDef{l + ".busy_s", "s"},
			metricDef{l + ".self_s", "s"}, metricDef{l + ".share", "fraction"})
	}
	return append(out,
		metricDef{"flow.self_s", "s"}, metricDef{"flow.share", "fraction"},
		metricDef{"flow.op_p50_ms", "ms"}, metricDef{"flow.op_p90_ms", "ms"},
		metricDef{"flow.hpwl_geomean", "fabric_units"}, metricDef{"flow.crit_path_ns_geomean", "ns"},
		metricDef{"gcn.dp_accuracy", "fraction"},
		metricDef{"placer.gp_s", "s"}, metricDef{"placer.legal_s", "s"},
		metricDef{"detailed.useful_ratio", "fraction"},
		metricDef{"assign.iterations", "count"}, metricDef{"assign.ms_per_iter", "ms"},
		metricDef{"assign.converged_ratio", "fraction"},
		metricDef{"dspgraph.edges", "count"},
		metricDef{"features.nodes", "count"},
		metricDef{"sta.tns_bit_mismatches", "count"},
		metricDef{"route.overflow_edges", "count"},
		metricDef{"server.submit_ms_p50", "ms"}, metricDef{"server.fetch_ms_p50", "ms"},
		metricDef{"netlist.decode_ms_p50", "ms"},
		metricDef{"jobs.queue_wait_ms_p50", "ms"}, metricDef{"jobs.queue_wait_ms_p90", "ms"},
		metricDef{"jobs.run_ms_p50", "ms"},
		metricDef{"cache.hit_ratio", "fraction"}, metricDef{"cache.useful_ratio", "fraction"},
		metricDef{"cache.hit_p50_ms", "ms"}, metricDef{"cache.hit_p90_ms", "ms"},
		metricDef{"cache.miss_p50_ms", "ms"},
		metricDef{"proc.cpu_s", "s"}, metricDef{"proc.alloc_mb", "MB"},
		metricDef{"proc.gc_cycles", "count"}, metricDef{"host.steal_s", "s"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"trace.fidelity_mismatches", "count"}, metricDef{"trace.valid", "bool"},
	)
}()

type metricDef struct{ name, unit string }

// layerNames are the layers spans are recorded for, by module name.
var layerNames = []string{"placer", "detailed", "assign", "legalize", "dspgraph", "features",
	"gcn", "sta", "route", "server", "netlist"}

func (r *run) metrics(spans []Span) map[string]measure.Metric {
	v := make(map[string]float64)
	layers, opTime := ByLayer(spans)
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: traced op time %.3fs over %d spans\n", r.name, opTime.Seconds(), len(spans))
	accounted := time.Duration(0)
	for _, l := range names {
		st := layers[l]
		share := 0.0
		if opTime > 0 {
			share = float64(st.Self) / float64(opTime)
		}
		accounted += st.Self
		v[l+".calls"], v[l+".busy_s"], v[l+".self_s"], v[l+".share"] = float64(st.Calls), st.Busy.Seconds(), st.Self.Seconds(), share
		fmt.Fprintf(os.Stderr, "  %-9s calls %6d  busy %9.3fs  self %9.3fs  share %6.2f%%\n",
			l, st.Calls, st.Busy.Seconds(), st.Self.Seconds(), 100*share)
	}
	fmt.Fprintf(os.Stderr, "  layer self times account for %.3fs of %.3fs\n", accounted.Seconds(), opTime.Seconds())

	c := r.k.c
	v["placer.gp_s"], v["placer.legal_s"] = c.gp.Seconds(), c.legal.Seconds()
	v["detailed.useful_ratio"] = ratio(c.refined, c.refineCalls)
	v["assign.iterations"] = float64(c.assignIters)
	if c.assignIters > 0 {
		v["assign.ms_per_iter"] = v["assign.busy_s"] * 1000 / float64(c.assignIters)
	}
	v["assign.converged_ratio"] = ratio(c.assignConverged, c.assignCalls)
	v["dspgraph.edges"] = float64(c.dspgraphEdges)
	v["features.nodes"] = float64(c.featureNodes)
	v["sta.tns_bit_mismatches"] = float64(c.tnsBitMismatches)
	v["route.overflow_edges"] = float64(c.overflowEdges)
	r.serve.metrics(v)
	v["flow.op_p50_ms"] = measure.Median(r.opMS)
	v["flow.op_p90_ms"] = percentile(r.opMS, 0.9)
	if g, err := measure.Geomean(r.hpwl); err == nil {
		v["flow.hpwl_geomean"] = g
	}
	if g, err := measure.Geomean(r.crit); err == nil {
		v["flow.crit_path_ns_geomean"] = g
	}
	v["gcn.dp_accuracy"] = ratio(r.matched, r.dspsIn)
	v["proc.cpu_s"] = r.noise.CPU.Seconds()
	v["proc.alloc_mb"] = float64(r.noise.AllocBytes) / (1 << 20)
	v["proc.gc_cycles"] = float64(r.noise.GCCycles)
	v["host.steal_s"] = r.noise.Steal.Seconds()
	if r.plain > 0 {
		v["trace.overhead_ratio"] = float64(r.traced) / float64(r.plain)
	}
	v["trace.fidelity_mismatches"] = float64(r.mismatches)
	if r.mismatches == 0 && r.ledger.Failed == 0 {
		v["trace.valid"] = 1
	}
	fmt.Fprintf(os.Stderr, "%s: traced pass %.3fs, untraced %.3fs, %d fidelity mismatches; traced %s\n",
		r.name, r.traced.Seconds(), r.plain.Seconds(), r.mismatches, r.noise)

	m := make(map[string]measure.Metric, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = measure.Metric{Value: v[d.name], Unit: d.unit}
	}
	return m
}

// percentile is measure.Percentile, reading 0 when too few samples lie
// above the quantile to report it. Medians need no such guard and use
// measure.Median.
func percentile(xs []float64, q float64) float64 {
	v, _ := measure.Percentile(xs, q)
	return v
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}
