// Command dsplacer places a netlist end to end with the DSPlacer flow (or
// a baseline flow) on a registered device (ZCU104 by default) and prints
// the post-route timing/wirelength report, optionally dumping the layout.
//
// Usage:
//
//	dsplacer -netlist design.json -freq 150 [-flow dsplacer|vivado|amf]
//	         [-device zcu104|pynq-z2|zu15eg|arria10]
//	         [-lambda 100] [-mcf-iters 50] [-rounds 2] [-seed 1]
//	         [-svg layout.svg] [-ascii]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dsplacer/internal/cli"
	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/features"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gcn"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
	"dsplacer/internal/route"
	"dsplacer/internal/viz"
	"dsplacer/internal/xdc"
)

func main() {
	path := flag.String("netlist", "", "JSON netlist to place (required)")
	device := flag.String("device", "zcu104", "target device from the registry: "+strings.Join(fpga.Names(), ", "))
	freq := flag.Float64("freq", 150, "target clock frequency in MHz")
	flow := flag.String("flow", "dsplacer", "flow: dsplacer, vivado or amf")
	lambda := flag.Float64("lambda", 100, "datapath penalty λ (Eq. 6/7)")
	mcfIters := flag.Int("mcf-iters", 50, "MCF linearization iterations")
	rounds := flag.Int("rounds", 2, "incremental placement rounds (Fig. 6)")
	modelPath := flag.String("model", "", "trained GCN model (cmd/train) for datapath identification; default: generator ground truth")
	svgPath := flag.String("svg", "", "write an SVG layout to this path")
	ascii := flag.Bool("ascii", false, "print an ASCII layout")
	congestion := flag.Bool("congestion", false, "print a routing congestion heatmap")
	xdcPath := flag.String("xdc", "", "write Vivado LOC constraints for the DSP placement to this path")
	jsonOut := flag.Bool("json", false, "print the report as JSON instead of text")
	common := cli.RegisterCommon(flag.CommandLine, 1, "final")
	flag.Parse()
	stop := common.Start()
	defer stop()

	if *path == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancels the flow at the next stage boundary (or
	// assignment iteration) instead of killing the process mid-write.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	nl, err := netlist.LoadFile(*path)
	if err != nil {
		cli.Fatal(err)
	}
	dev, err := fpga.Lookup(*device)
	if err != nil {
		cli.Fatal(err)
	}
	cfg := core.Config{
		ClockMHz: *freq, Lambda: *lambda,
		MCFIterations: *mcfIters, Rounds: *rounds, Seed: common.Seed,
		Validate: common.Validate(),
	}
	if *modelPath != "" {
		model, err := gcn.LoadFile(*modelPath)
		if err != nil {
			cli.Fatal(err)
		}
		cfg.Identifier = &core.GCNIdentifier{Model: model, FeatureCfg: features.Config{Seed: common.Seed + 13}}
	}

	var res *core.Result
	switch *flow {
	case "dsplacer":
		res, err = core.Run(ctx, dev, nl, cfg)
	case "vivado":
		res, err = core.RunBaseline(ctx, dev, nl, placer.ModeVivado, cfg)
	case "amf":
		res, err = core.RunBaseline(ctx, dev, nl, placer.ModeAMF, cfg)
	default:
		cli.Fatal(fmt.Errorf("unknown -flow %q", *flow))
	}
	if err != nil {
		stop()
		cli.Fatal(err)
	}

	if *jsonOut {
		p := res.Profile
		report := map[string]interface{}{
			"design": nl.Name, "flow": res.Flow, "freq_mhz": *freq,
			"wns_ns": res.WNS, "tns_ns": res.TNS,
			"hpwl": res.HPWL, "routed_wl": res.RoutedWL, "overflow_edges": res.Overflow,
			"runtime_s": p.Total.Seconds(),
			"profile_s": map[string]float64{
				"prototype": p.Prototype.Seconds(), "extraction": p.Extraction.Seconds(),
				"dsp_place": p.DSPPlace.Seconds(), "other_place": p.OtherPlace.Seconds(),
				"routing": p.Routing.Seconds(),
			},
			"datapath_dsps": len(res.DatapathDSPs),
		}
		if res.AssignStopReason != "" {
			report["assign_iterations"] = res.AssignIterations
			report["assign_stop_reason"] = res.AssignStopReason
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			cli.Fatal(err)
		}
		return
	}
	st := nl.Stats()
	fmt.Printf("design   %s (%d cells, %d nets, %d DSP)\n", nl.Name, nl.NumCells(), st.Nets, st.DSP)
	fmt.Printf("flow     %s @ %.1f MHz\n", res.Flow, *freq)
	fmt.Printf("WNS      %+.3f ns\n", res.WNS)
	fmt.Printf("TNS      %+.3f ns\n", res.TNS)
	fmt.Printf("HPWL     %.0f\n", res.HPWL)
	fmt.Printf("routedWL %.0f (overflowed edges: %d)\n", res.RoutedWL, res.Overflow)
	p := res.Profile
	fmt.Printf("runtime  %.2fs (proto %.2fs, extract %.2fs, dsp %.2fs, other %.2fs, route %.2fs)\n",
		p.Total.Seconds(), p.Prototype.Seconds(), p.Extraction.Seconds(),
		p.DSPPlace.Seconds(), p.OtherPlace.Seconds(), p.Routing.Seconds())
	if res.AssignStopReason != "" {
		fmt.Printf("assign   %d iterations, stop: %s\n", res.AssignIterations, res.AssignStopReason)
	}

	if *xdcPath != "" {
		if err := xdc.SaveFile(*xdcPath, dev, nl, res.SiteOfDSP); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("constraints %s (%d DSPs)\n", *xdcPath, len(res.SiteOfDSP))
	}
	if *congestion {
		rr := route.Route(dev, nl, res.Pos, route.Options{})
		fmt.Println(viz.Heatmap(viz.CongestionMap{
			NX: rr.GridNX, NY: rr.GridNY, H: rr.HUtil, V: rr.VUtil,
		}, 72, 30))
	}
	if *ascii || *svgPath != "" {
		datapath := map[int]bool{}
		ids, _ := core.OracleIdentifier{}.Identify(ctx, nl)
		for _, c := range ids {
			datapath[c] = true
		}
		if *ascii {
			fmt.Println(viz.ASCII(dev, nl, res.Pos, datapath, 72, 30))
		}
		if *svgPath != "" {
			dg := dspgraph.Build(nl, dspgraph.Config{})
			var edges [][2]int
			for _, e := range dg.Edges {
				if datapath[e.From] && datapath[e.To] {
					edges = append(edges, [2]int{e.From, e.To})
				}
			}
			if err := os.WriteFile(*svgPath, []byte(viz.SVG(dev, nl, res.Pos, datapath, edges)), 0o644); err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("layout   %s\n", *svgPath)
		}
	}
}
