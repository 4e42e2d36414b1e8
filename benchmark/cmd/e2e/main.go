// Command e2e is the benchmark's end-to-end runner. It runs one workload
// against the program from outside, checks every op's output and prints
// the end-to-end metrics as the last line of standard output:
//
//	e2e -workload table2-mini -seed 1 -seconds 20 -model benchmark/model/gcn-mini-auto.json
//
// It calls the program only through the root dsplacer package, the
// dsplacerd server and gcn.LoadFile, plus dspgraph.Build (the second half
// of an extraction op) and drc.Check (the flows' output check), so changes
// to the placer, detailed-placement and STA signatures cannot break it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dsplacer/benchmark/measure"
	"dsplacer/benchmark/workload"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
// One set-up takes well under a second, so a single one is at the mercy
// of a stray scheduling delay.
const setupRepeats = 5

func main() {
	name := flag.String("workload", "", "workload: table2-mini, dsp-dense, extract-gcn or serve-mix")
	seed := flag.Int64("seed", 1, "workload seed (permutes op and request order)")
	seconds := flag.Int("seconds", 20, "measurement budget per run")
	trace := flag.Int("trace", 0, "must be 0; the traced run is a separate program")
	model := flag.String("model", "benchmark/model/gcn-mini-auto.json", "GCN artifact for extract-gcn")
	smoke := flag.Bool("smoke", false, "run one op of the workload once and check it")
	flag.Parse()
	if *trace != 0 {
		fatal(errors.New("-trace 1 is served by the traced runner"))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds %d: need at least 1", *seconds))
	}
	opt := options{seed: *seed, budget: time.Duration(*seconds) * time.Second, smoke: *smoke, model: *model}
	res, err := run(context.Background(), *name, opt)
	if err != nil {
		fatal(err)
	}
	if err := res.Print(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	os.Exit(1)
}

type options struct {
	seed   int64
	budget time.Duration
	smoke  bool
	model  string
}

// bench is one workload's set-up state. pass runs the op set once; check
// verifies the outputs of pass p afterwards, outside the timed region.
// latencies returns every op's net latency so far in ms, and summary the
// workload's own figures (QoR, accuracy, latency by cache outcome). Both
// go to standard error only: every workload reports the same end-to-end
// metrics, and op latency is too noisy on serve-mix to gate on (NOTES.md).
type bench interface {
	pass(ctx context.Context, p int) error
	check(p int, l *measure.Ledger)
	latencies() []float64
	summary() (string, error)
	close() error
}

func setUp(name string, opt options) (bench, error) {
	switch name {
	case workload.Table2Mini, workload.DSPDense:
		return newFlowBench(name, opt)
	case workload.ExtractGCN:
		return newExtractBench(opt)
	case workload.ServeMix:
		return newServeBench(opt)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workload.Names)
}

func run(ctx context.Context, name string, opt options) (res measure.Result, err error) {
	var b bench
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return measure.Result{}, err
			}
			b = nil // let the previous set-up's inputs be collected
		}
		sw := measure.Start()
		if b, err = setUp(name, opt); err != nil {
			return measure.Result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sw.Net().Seconds())
	}
	defer func() {
		if cerr := b.close(); err == nil && cerr != nil {
			err = fmt.Errorf("close: %w", cerr)
		}
	}()

	ledger := &measure.Ledger{Workload: name}
	var noise measure.Counters
	budget := opt.budget
	if opt.smoke {
		budget = 0 // one pass
	}
	passes, err := measure.Passes(budget, func(p int) (time.Duration, time.Duration, error) {
		c0 := measure.Sample()
		sw := measure.Start()
		if err := b.pass(ctx, p); err != nil {
			return 0, 0, err
		}
		net, wall := sw.Elapsed()
		n := measure.Sample().Sub(c0)
		noise = noise.Add(n)
		fmt.Fprintf(os.Stderr, "%s pass %d: net %.3fs, wall %.3fs, %s\n", name, p, net.Seconds(), wall.Seconds(), n)
		b.check(p, ledger)
		return net, wall, nil
	})
	if err != nil {
		return measure.Result{}, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes, %d ops, %d failed; over all passes %s\n",
		name, len(passes), ledger.Attempted, ledger.Failed, noise)

	sum, err := b.summary()
	if err != nil {
		return measure.Result{}, err
	}
	lat := b.latencies()
	fmt.Fprintf(os.Stderr, "%s: op_p50_ms %.3f over %d ops; %s\n", name, measure.Median(lat), len(lat), sum)
	rss := measure.PeakRSSMB()
	if rss <= 0 {
		return measure.Result{}, errors.New("cannot read the peak resident set (VmHWM)")
	}
	m := map[string]measure.Metric{
		"setup_s":     {Value: measure.Median(setups), Unit: "s"},
		"pass_s":      {Value: measure.Median(passes), Unit: "s"},
		"ok_ratio":    {Value: ledger.OKRatio(), Unit: "fraction"},
		"peak_rss_mb": {Value: rss, Unit: "MB"},
	}
	return measure.Result{Correct: ledger.Failed == 0, Attempted: ledger.Attempted, Failed: ledger.Failed, Metrics: m}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// smokeOps trims an op set to its first op in smoke mode.
func smokeOps[T any](ops []T, smoke bool) []T {
	if smoke && len(ops) > 1 {
		return ops[:1]
	}
	return ops
}
