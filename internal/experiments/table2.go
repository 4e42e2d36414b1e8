package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"dsplacer/internal/core"
	"dsplacer/internal/gen"
	"dsplacer/internal/par"
	"dsplacer/internal/placer"
	"dsplacer/internal/stage"
)

// FlowMetrics is one cell group of Table II.
type FlowMetrics struct {
	WNS, TNS float64 // ns
	HPWL     float64 // fabric units
	Runtime  float64 // seconds
}

// TableIIRow is one benchmark's results across the three flows.
type TableIIRow struct {
	Benchmark string
	Vivado    FlowMetrics
	AMF       FlowMetrics
	DSPlacer  FlowMetrics
	// Profile is kept for Fig. 8.
	Profile core.Profile
}

// TableIIConfig tunes the comparison.
type TableIIConfig struct {
	MCFIterations int // paper: 50
	Rounds        int
	Lambda        float64 // paper: 100
	Seed          int64
	// Validate sets the stage-boundary DRC gating level for every flow the
	// experiment runs (off by default: the experiments measure quality, and
	// the integration tests already gate every stage).
	Validate core.ValidateLevel
}

func (c TableIIConfig) coreConfig(spec gen.Spec) core.Config {
	return core.Config{
		ClockMHz:      spec.FreqMHz,
		Lambda:        c.Lambda,
		MCFIterations: c.MCFIterations,
		Rounds:        c.Rounds,
		Seed:          c.Seed + spec.Seed,
		Validate:      c.Validate,
	}
}

// RunTableIIRow executes all three flows on one benchmark.
func (s *Suite) RunTableIIRow(spec gen.Spec, cfg TableIIConfig) (*TableIIRow, error) {
	defer stage.Start("experiments.table2.row")()
	nl, err := s.Netlist(spec)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.coreConfig(spec)
	row := &TableIIRow{Benchmark: spec.Name}

	measure := func(run func() (*core.Result, error)) (FlowMetrics, *core.Result, error) {
		t0 := time.Now()
		res, err := run()
		if err != nil {
			return FlowMetrics{}, nil, err
		}
		return FlowMetrics{
			WNS: res.WNS, TNS: res.TNS, HPWL: res.HPWL,
			Runtime: time.Since(t0).Seconds(),
		}, res, nil
	}

	var res *core.Result
	if row.Vivado, _, err = measure(func() (*core.Result, error) {
		return core.RunBaseline(context.Background(), s.Dev, nl, placer.ModeVivado, ccfg)
	}); err != nil {
		return nil, fmt.Errorf("%s vivado: %w", spec.Name, err)
	}
	if row.AMF, _, err = measure(func() (*core.Result, error) {
		return core.RunBaseline(context.Background(), s.Dev, nl, placer.ModeAMF, ccfg)
	}); err != nil {
		return nil, fmt.Errorf("%s amf: %w", spec.Name, err)
	}
	if row.DSPlacer, res, err = measure(func() (*core.Result, error) {
		return core.Run(context.Background(), s.Dev, nl, ccfg)
	}); err != nil {
		return nil, fmt.Errorf("%s dsplacer: %w", spec.Name, err)
	}
	row.Profile = res.Profile
	return row, nil
}

// TableII runs every benchmark and prints the paper-format table with a
// normalization row. The normalization uses critical-path delay ratios for
// WNS (period − WNS), |TNS|+1 ratios for TNS, and direct ratios for HPWL
// and runtime, each geomean-ed across benchmarks relative to DSPlacer = 1.
//
// The rows are independent (separate netlists, separate flows), so they
// execute across the worker pool and are printed in spec order afterwards.
// Per-flow Runtime stays wall-clock and can inflate when rows share cores;
// the cross-flow ratios within one row remain comparable since all three
// flows of a row run on the same worker.
func (s *Suite) TableII(w io.Writer, cfg TableIIConfig) ([]*TableIIRow, error) {
	fmt.Fprintf(w, "Table II: Experiment Result.\n")
	fmt.Fprintf(w, "%-10s | %9s %12s %10s %8s | %9s %12s %10s %8s | %9s %12s %10s %8s\n",
		"", "Vivado", "", "", "", "AMF", "", "", "", "DSPlacer", "", "", "")
	fmt.Fprintf(w, "%-10s | %9s %12s %10s %8s | %9s %12s %10s %8s | %9s %12s %10s %8s\n",
		"Benchmark",
		"WNS(ns)", "TNS(ns)", "HPWL", "Rt(s)",
		"WNS(ns)", "TNS(ns)", "HPWL", "Rt(s)",
		"WNS(ns)", "TNS(ns)", "HPWL", "Rt(s)")
	type rowOrErr struct {
		row *TableIIRow
		err error
	}
	results := par.Map(len(s.Specs), func(i int) rowOrErr {
		row, err := s.RunTableIIRow(s.Specs[i], cfg)
		return rowOrErr{row: row, err: err}
	})
	var rows []*TableIIRow
	for _, r := range results {
		if r.err != nil {
			return rows, r.err
		}
		rows = append(rows, r.row)
		p := func(m FlowMetrics) string {
			return fmt.Sprintf("%9.3f %12.3f %10.0f %8.1f", m.WNS, m.TNS, m.HPWL, m.Runtime)
		}
		fmt.Fprintf(w, "%-10s | %s | %s | %s\n",
			r.row.Benchmark, p(r.row.Vivado), p(r.row.AMF), p(r.row.DSPlacer))
	}
	nv, na := Normalize(rows, s.Specs)
	fmt.Fprintf(w, "%-10s | %8.3fx %11.3fx %9.3fx %7.3fx | %8.3fx %11.3fx %9.3fx %7.3fx | %9s %12s %10s %8s\n",
		"Normalize",
		nv.WNS, nv.TNS, nv.HPWL, nv.Runtime,
		na.WNS, na.TNS, na.HPWL, na.Runtime,
		"1.000x", "1.000x", "1.000x", "1.000x")
	return rows, nil
}

// Normalize returns the geometric-mean ratios of Vivado and AMF metrics
// relative to DSPlacer (critical-path delay for WNS, see TableII doc).
func Normalize(rows []*TableIIRow, specs []gen.Spec) (vivado, amf FlowMetrics) {
	period := func(name string) float64 {
		for _, s := range specs {
			if s.Name == name {
				return 1000 / s.FreqMHz
			}
		}
		return 1
	}
	geo := func(f func(r *TableIIRow) float64) float64 {
		logSum := 0.0
		for _, r := range rows {
			logSum += math.Log(f(r))
		}
		return math.Exp(logSum / float64(len(rows)))
	}
	if len(rows) == 0 {
		return
	}
	norm := func(pick func(r *TableIIRow) FlowMetrics) FlowMetrics {
		return FlowMetrics{
			WNS: geo(func(r *TableIIRow) float64 {
				T := period(r.Benchmark)
				return (T - pick(r).WNS) / (T - r.DSPlacer.WNS)
			}),
			TNS: geo(func(r *TableIIRow) float64 {
				return (1 + math.Abs(pick(r).TNS)) / (1 + math.Abs(r.DSPlacer.TNS))
			}),
			HPWL: geo(func(r *TableIIRow) float64 {
				return pick(r).HPWL / r.DSPlacer.HPWL
			}),
			Runtime: geo(func(r *TableIIRow) float64 {
				return pick(r).Runtime / r.DSPlacer.Runtime
			}),
		}
	}
	vivado = norm(func(r *TableIIRow) FlowMetrics { return r.Vivado })
	amf = norm(func(r *TableIIRow) FlowMetrics { return r.AMF })
	return vivado, amf
}
