// Datapath extraction: train the GCN classifier of §III-A on mini
// benchmarks with the leave-one-out protocol, compare it against the
// PADE-style local-feature SVM, and show how the DSP graph refinement uses
// the predictions — a miniature Fig. 7.
//
//	go run ./examples/datapath_extraction
package main

import (
	"context"
	"fmt"
	"log"

	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/experiments"
	"dsplacer/internal/features"
	"dsplacer/internal/gcn"
)

func main() {
	suite := experiments.NewSuite(experiments.MiniSpecs()[:3])

	// Leave-one-out GCN vs SVM accuracy (Fig. 7a).
	rows, err := suite.Fig7a(logWriter{}, experiments.Fig7Config{Epochs: 30, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	_ = rows

	// Now use a trained model as the Identifier on a fresh design and build
	// the filtered datapath DSP graph the placement stage consumes.
	target := suite.Specs[0]
	nl, err := suite.Netlist(target)
	if err != nil {
		log.Fatal(err)
	}
	fcfg := features.Config{Seed: 9}
	var train []*gcn.Sample
	for _, spec := range suite.Specs[1:] {
		tnl, err := suite.Netlist(spec)
		if err != nil {
			log.Fatal(err)
		}
		s, err := core.BuildSample(tnl, fcfg)
		if err != nil {
			log.Fatal(err)
		}
		train = append(train, s)
	}
	gcfg := gcn.Defaults(features.NumFeatures)
	gcfg.Epochs = 30
	model, _ := gcn.Train(gcfg, train, nil)

	id := &core.GCNIdentifier{Model: model, FeatureCfg: fcfg}
	predicted, err := id.Identify(context.Background(), nl)
	if err != nil {
		log.Fatal(err)
	}
	correct := 0
	for _, c := range predicted {
		if nl.Cells[c].DatapathTruth {
			correct++
		}
	}
	truth := experiments.DatapathCount(nl)
	fmt.Printf("\n%s: GCN predicted %d datapath DSPs (%d correct, %d ground truth)\n",
		nl.Name, len(predicted), correct, truth)

	// Build + filter the DSP graph (§III-B) with the predictions.
	keep := map[int]bool{}
	for _, c := range predicted {
		keep[c] = true
	}
	full := dspgraph.Build(nl, dspgraph.Config{})
	filtered := full.Filter(func(id int) bool { return keep[id] })
	fmt.Printf("DSP graph: %d nodes / %d edges → filtered to %d nodes / %d edges\n",
		len(full.Nodes), len(full.Edges), len(filtered.Nodes), len(filtered.Edges))

	// The §III-B storage observation, measured: control DSPs see more
	// storage elements along their discovered paths.
	storage := full.StorageAlongPaths()
	var dataSum, ctrlSum, dataN, ctrlN float64
	for _, node := range full.Nodes {
		if nl.Cells[node].DatapathTruth {
			dataSum += float64(storage[node])
			dataN++
		} else {
			ctrlSum += float64(storage[node])
			ctrlN++
		}
	}
	fmt.Printf("storage elements along paths: datapath avg %.2f vs control avg %.2f\n",
		dataSum/dataN, ctrlSum/ctrlN)
}

// logWriter adapts fmt printing to the suite's io.Writer parameter.
type logWriter struct{}

func (logWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
