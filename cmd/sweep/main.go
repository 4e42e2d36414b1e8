// Command sweep grids over DSPlacer hyperparameters (λ, η, MCF iterations,
// rounds) on one benchmark and emits CSV for plotting — the tool behind the
// "λ=100 based on the experiment" style tuning of §V-C.
//
// Usage:
//
//	sweep -netlist design.json -freq 150 -lambdas 0,10,100,1000 -etas 50
//	sweep -mini SkyNet -lambdas 0,100 -iters 5,20,50 > sweep.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dsplacer/internal/cli"
	"dsplacer/internal/core"
	"dsplacer/internal/experiments"
	"dsplacer/internal/fpga"
	"dsplacer/internal/netlist"
)

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	path := flag.String("netlist", "", "JSON netlist to sweep on")
	mini := flag.String("mini", "", "use the mini variant of this Table-I benchmark instead (e.g. SkyNet)")
	freq := flag.Float64("freq", 150, "clock frequency in MHz (ignored with -mini)")
	lambdas := flag.String("lambdas", "100", "comma-separated λ values")
	etas := flag.String("etas", "50", "comma-separated η values")
	iters := flag.String("iters", "50", "comma-separated MCF iteration budgets")
	rounds := flag.Int("rounds", 1, "incremental rounds")
	common := cli.RegisterCommon(flag.CommandLine, 1, "final")
	flag.Parse()
	stop := common.Start()
	defer stop()

	dev := fpga.NewZCU104()
	var nl *netlist.Netlist
	var err error
	clock := *freq
	switch {
	case *mini != "":
		suite := experiments.NewSuite(experiments.MiniSpecs())
		for _, spec := range suite.Specs {
			if spec.Name == "mini-"+*mini || spec.Name == *mini {
				nl, err = suite.Netlist(spec)
				clock = spec.FreqMHz
				break
			}
		}
		if nl == nil && err == nil {
			cli.Fatal(fmt.Errorf("no mini benchmark matches %q", *mini))
		}
	case *path != "":
		nl, err = netlist.LoadFile(*path)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		cli.Fatal(err)
	}

	ls, err := parseFloats(*lambdas)
	if err != nil {
		cli.Fatal(err)
	}
	es, err := parseFloats(*etas)
	if err != nil {
		cli.Fatal(err)
	}
	is, err := parseInts(*iters)
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Println("lambda,eta,mcf_iters,rounds,wns_ns,tns_ns,hpwl,routed_wl,runtime_s")
	for _, l := range ls {
		for _, e := range es {
			for _, it := range is {
				cfg := core.Config{
					ClockMHz: clock, Lambda: nz(l), Eta: nz(e),
					MCFIterations: it, Rounds: *rounds, Seed: common.Seed,
					Validate: common.Validate(), Stages: common.Stages,
				}
				res, err := core.Run(context.Background(), dev, nl, cfg)
				if err != nil {
					cli.Fatal(fmt.Errorf("λ=%v η=%v iters=%d: %w", l, e, it, err))
				}
				fmt.Printf("%g,%g,%d,%d,%.4f,%.4f,%.0f,%.0f,%.2f\n",
					l, e, it, *rounds, res.WNS, res.TNS, res.HPWL, res.RoutedWL,
					res.Profile.Total.Seconds())
			}
		}
	}
}

// nz maps 0 to a tiny value so "0" in a sweep really disables the term
// (core treats exact zero as "use default").
func nz(v float64) float64 {
	if v == 0 {
		return 1e-9
	}
	return v
}
