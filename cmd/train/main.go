// Command train fits the §III-A GCN datapath classifier on benchmark
// netlists and saves the model for cmd/dsplacer-style flows (the paper's
// "well-trained GCN" artifact).
//
// Usage:
//
//	train -out model.json design1.json design2.json ...
//	train -mini -out model.json           # train on built-in mini suite
//	train -eval design.json -model model.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"dsplacer/internal/cli"
	"dsplacer/internal/core"
	"dsplacer/internal/experiments"
	"dsplacer/internal/features"
	"dsplacer/internal/gcn"
	"dsplacer/internal/netlist"
)

func main() {
	out := flag.String("out", "model.json", "path for the trained model")
	mini := flag.Bool("mini", false, "train on the built-in mini benchmark suite")
	epochs := flag.Int("epochs", 120, "training epochs")
	evalPath := flag.String("eval", "", "evaluate -model on this netlist instead of training")
	modelPath := flag.String("model", "", "model to evaluate (with -eval)")
	common := cli.RegisterCommon(flag.CommandLine, 1, "off")
	flag.Parse()
	stop := common.Start()
	defer stop()

	fcfg := features.Config{Seed: common.Seed + 13}

	if *evalPath != "" {
		if *modelPath == "" {
			cli.Fatal(errors.New("-eval requires -model"))
		}
		model, err := gcn.LoadFile(*modelPath)
		if err != nil {
			cli.Fatal(err)
		}
		nl, err := netlist.LoadFile(*evalPath)
		if err != nil {
			cli.Fatal(err)
		}
		sample, err := core.BuildSample(nl, fcfg)
		if err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("%s: datapath DSP accuracy %.1f%% over %d DSPs\n",
			nl.Name, model.Accuracy(sample)*100, len(sample.Mask))
		return
	}

	var samples []*gcn.Sample
	if *mini {
		suite := experiments.NewSuite(experiments.MiniSpecs())
		for _, spec := range suite.Specs {
			nl, err := suite.Netlist(spec)
			if err != nil {
				cli.Fatal(err)
			}
			s, err := core.BuildSample(nl, fcfg)
			if err != nil {
				cli.Fatal(err)
			}
			samples = append(samples, s)
		}
	}
	for _, path := range flag.Args() {
		nl, err := netlist.LoadFile(path)
		if err != nil {
			cli.Fatal(err)
		}
		s, err := core.BuildSample(nl, fcfg)
		if err != nil {
			cli.Fatal(err)
		}
		samples = append(samples, s)
	}
	if len(samples) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cfg := gcn.Defaults(features.NumFeatures)
	cfg.Epochs = *epochs
	cfg.Seed = common.Seed
	model, hist := gcn.Train(cfg, samples, nil)
	if len(hist) > 0 {
		last := hist[len(hist)-1]
		fmt.Printf("trained %d epochs on %d graphs: train accuracy %.1f%%, loss %.4f\n",
			last.Epoch, len(samples), last.TrainAcc*100, last.Loss)
	}
	if err := model.SaveFile(*out); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("model saved to %s\n", *out)
}
