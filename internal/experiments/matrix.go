package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/metrics"
	"dsplacer/internal/par"
)

// MatrixCell is one (device, family) entry of the cross-device QoR matrix.
type MatrixCell struct {
	Device       string
	Family       gen.Family
	Benchmark    string
	WNS, TNS     float64 // ns
	HPWL         float64 // fabric units
	CascadeAlign float64 // fraction of cascade pairs on consecutive sites
	Runtime      float64 // seconds
}

// RunMatrixCell executes the full DSPlacer flow for one (device, family)
// pair and summarizes its QoR. The spec's Family selects the topology; the
// device comes from the registry by name.
func RunMatrixCell(ctx context.Context, devName string, spec gen.Spec, cfg TableIIConfig) (*MatrixCell, error) {
	defer cfg.Stages.Start("experiments.matrix.cell")()
	dev, err := fpga.Lookup(devName)
	if err != nil {
		return nil, err
	}
	nl, err := gen.Generate(spec, dev)
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", spec.Name, devName, err)
	}
	t0 := time.Now()
	res, err := core.Run(ctx, dev, nl, cfg.coreConfig(spec))
	if err != nil {
		return nil, fmt.Errorf("%s on %s: %w", spec.Name, devName, err)
	}
	return &MatrixCell{
		Device:       devName,
		Family:       spec.Family,
		Benchmark:    spec.Name,
		WNS:          res.WNS,
		TNS:          res.TNS,
		HPWL:         res.HPWL,
		CascadeAlign: metrics.CascadeAlignment(dev, nl, res.SiteOfDSP),
		Runtime:      time.Since(t0).Seconds(),
	}, nil
}

// QoRMatrix runs the DSPlacer flow over the device × family cross product
// and prints one row per cell. devices selects registry entries (nil = all
// registered parts); specs supplies one benchmark per family (nil =
// gen.FamilySpecs()). Cells are independent, so they run across the worker
// pool and print in (device, family) order afterwards.
func QoRMatrix(w io.Writer, devices []string, specs []gen.Spec, cfg TableIIConfig) ([]*MatrixCell, error) {
	if devices == nil {
		devices = fpga.Names()
	}
	if specs == nil {
		specs = gen.FamilySpecs()
	}
	type job struct {
		dev  string
		spec gen.Spec
	}
	var jobs []job
	for _, d := range devices {
		if _, err := fpga.Lookup(d); err != nil {
			return nil, err // reject unknown names before burning any work
		}
		for _, s := range specs {
			jobs = append(jobs, job{dev: d, spec: s})
		}
	}
	type cellOrErr struct {
		cell *MatrixCell
		err  error
	}
	results := par.Map(len(jobs), func(i int) cellOrErr {
		cell, err := RunMatrixCell(context.Background(), jobs[i].dev, jobs[i].spec, cfg)
		return cellOrErr{cell: cell, err: err}
	})

	fmt.Fprintf(w, "QoR matrix: DSPlacer across %d devices x %d families.\n", len(devices), len(specs))
	fmt.Fprintf(w, "%-10s %-16s | %9s %12s %10s %7s %8s\n",
		"Device", "Family", "WNS(ns)", "TNS(ns)", "HPWL", "align", "Rt(s)")
	var cells []*MatrixCell
	for _, r := range results {
		if r.err != nil {
			return cells, r.err
		}
		cells = append(cells, r.cell)
		fmt.Fprintf(w, "%-10s %-16s | %9.3f %12.3f %10.0f %7.3f %8.1f\n",
			r.cell.Device, r.cell.Family, r.cell.WNS, r.cell.TNS, r.cell.HPWL,
			r.cell.CascadeAlign, r.cell.Runtime)
	}
	return cells, nil
}
