// Package features turns a netlist into the per-node feature matrix of
// §III-A: (a) closeness centrality, (b) feedback-loop membership,
// (c) eccentricity, (d) indegree, (e) outdegree, (f) betweenness centrality
// and (g) the average shortest-path distance to other DSP nodes (defined on
// DSP nodes only, zero elsewhere).
//
// The paper computes the exact metrics with NetworkX offline. The GCN needs
// only their *ranking*, so the centrality columns (a, c, f, g) come from the
// graph-signal-processing estimator of internal/gsp: spectral surrogates
// from random probes through a Chebyshev-filtered diffusion, O(K·p·M) at
// every graph size. The exact O(N·M) metrics of internal/graph remain as the
// test oracle for the surrogates' ranking.
package features

import (
	"context"
	"fmt"
	"math"

	"dsplacer/internal/graph"
	"dsplacer/internal/gsp"
	"dsplacer/internal/mat"
	"dsplacer/internal/netlist"
	"dsplacer/internal/stage"
)

// NumFeatures is the width of the extracted feature matrix.
const NumFeatures = 7

// Feature column indices.
const (
	Closeness = iota
	FeedbackLoop
	Eccentricity
	InDegree
	OutDegree
	Betweenness
	AvgDSPDist
)

// Names lists the feature column names in order.
var Names = [NumFeatures]string{
	"closeness", "feedback_loop", "eccentricity", "indegree",
	"outdegree", "betweenness", "avg_dsp_dist",
}

// Config tunes extraction cost. Zero values take the defaults of
// gsp.Options.
type Config struct {
	// Probes is the Hutchinson probe count of the spectral estimator
	// (default 6).
	Probes int
	// Order is the Chebyshev order / diffusion depth of the spectral
	// estimator (default 10).
	Order int
	// Seed drives probe generation.
	Seed int64
	// Stages receives the extraction's timing (features.centrality and
	// gsp.filter); nil records nothing.
	Stages *stage.Recorder
}

// Set is the extraction result.
type Set struct {
	// X is the n×NumFeatures raw feature matrix.
	X *mat.Dense
	// DSP lists the cell ids of DSP cells (the nodes the GCN classifies).
	DSP []int
	// Undirected is the netlist graph's symmetric view
	// (nl.ToGraph().Undirected()) that the centralities ran on; the GCN
	// builds its propagation operator from it instead of a second copy.
	Undirected *graph.Digraph
}

// Extract computes the feature matrix for nl. It is ExtractContext without
// cancellation; with a background context extraction cannot fail.
func Extract(nl *netlist.Netlist, cfg Config) *Set {
	s, err := ExtractContext(context.Background(), nl, cfg)
	if err != nil {
		// Only context cancellation produces errors, and Background has none.
		panic(fmt.Sprintf("features: extraction failed without cancellation: %v", err))
	}
	return s
}

// ExtractContext computes the feature matrix for nl. ctx is consulted
// between filter iterations; on cancellation the returned error wraps
// ctx.Err().
func ExtractContext(ctx context.Context, nl *netlist.Netlist, cfg Config) (*Set, error) {
	dg := nl.ToGraph()
	ug := dg.Undirected()
	n := dg.N()
	X := mat.NewDense(n, NumFeatures)

	// Degrees come from the directed graph; everything metric-like from the
	// undirected view, as in NetworkX usage for structural features.
	for v := 0; v < n; v++ {
		X.Set(v, InDegree, float64(dg.InDegree(v)))
		X.Set(v, OutDegree, float64(dg.OutDegree(v)))
	}
	for v, in := range dg.InFeedbackLoop() {
		if in {
			X.Set(v, FeedbackLoop, 1)
		}
	}

	dsp := nl.CellsOfType(netlist.DSP)
	if err := gspCentralities(ctx, ug, dsp, X, cfg); err != nil {
		return nil, err
	}
	return &Set{X: X, DSP: dsp, Undirected: ug}, nil
}

// gspCentralities maps the spectral surrogates of internal/gsp onto
// the feature columns, including the DSP-distance column.
func gspCentralities(ctx context.Context, ug *graph.Digraph, dsp []int, X *mat.Dense, cfg Config) error {
	defer cfg.Stages.Start("features.centrality")()
	res, err := gsp.Features(ctx, ug, dsp, gsp.Options{
		Probes: cfg.Probes, Order: cfg.Order, Seed: cfg.Seed, Stages: cfg.Stages,
	})
	if err != nil {
		return err
	}
	for v := 0; v < ug.N(); v++ {
		X.Set(v, Closeness, res.Closeness[v])
		X.Set(v, Eccentricity, res.Eccentricity[v])
		X.Set(v, Betweenness, res.Betweenness[v])
	}
	if res.AvgDSPDist != nil {
		for _, v := range dsp {
			X.Set(v, AvgDSPDist, res.AvgDSPDist[v])
		}
	}
	return nil
}

// Standardize returns a column-wise z-scored copy of X: (x-mean)/std per
// column, with zero-variance columns left at 0. GCN training is far better
// conditioned on standardized features.
func Standardize(X *mat.Dense) *mat.Dense {
	out := X.Clone()
	for j := 0; j < X.C; j++ {
		mean, sq := 0.0, 0.0
		for i := 0; i < X.R; i++ {
			mean += X.At(i, j)
		}
		mean /= float64(X.R)
		for i := 0; i < X.R; i++ {
			d := X.At(i, j) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(X.R))
		for i := 0; i < X.R; i++ {
			if std > 1e-12 {
				out.Set(i, j, (X.At(i, j)-mean)/std)
			} else {
				out.Set(i, j, 0)
			}
		}
	}
	return out
}
