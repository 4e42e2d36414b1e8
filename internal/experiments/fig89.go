package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dsplacer/internal/core"
	"dsplacer/internal/dspgraph"
	"dsplacer/internal/gen"
	"dsplacer/internal/metrics"
	"dsplacer/internal/placer"
	"dsplacer/internal/viz"
)

// Fig8 prints the runtime breakdown of the DSPlacer flow for the first two
// benchmarks (iSmartDNN and SkyNet in the paper).
func (s *Suite) Fig8(w io.Writer, cfg TableIIConfig) error {
	n := 2
	if len(s.Specs) < n {
		n = len(s.Specs)
	}
	fmt.Fprintf(w, "Fig 8: Runtime profiling of DSPlacer.\n")
	for _, spec := range s.Specs[:n] {
		nl, err := s.Netlist(spec)
		if err != nil {
			return err
		}
		res, err := core.Run(context.Background(), s.Dev, nl, cfg.coreConfig(spec))
		if err != nil {
			return err
		}
		p := res.Profile
		total := p.Total.Seconds()
		pct := func(d float64) float64 { return d / total * 100 }
		fmt.Fprintf(w, "%s (total %.1fs):\n", spec.Name, total)
		fmt.Fprintf(w, "  prototype placement   %6.2fs (%5.2f%%)\n", p.Prototype.Seconds(), pct(p.Prototype.Seconds()))
		fmt.Fprintf(w, "  datapath extraction   %6.2fs (%5.2f%%)\n", p.Extraction.Seconds(), pct(p.Extraction.Seconds()))
		fmt.Fprintf(w, "  datapath DSP place    %6.2fs (%5.2f%%)\n", p.DSPPlace.Seconds(), pct(p.DSPPlace.Seconds()))
		fmt.Fprintf(w, "  other components      %6.2fs (%5.2f%%)\n", p.OtherPlace.Seconds(), pct(p.OtherPlace.Seconds()))
		fmt.Fprintf(w, "  routing               %6.2fs (%5.2f%%)\n", p.Routing.Seconds(), pct(p.Routing.Seconds()))
	}
	return nil
}

// Fig9 renders the SkrSkr-1 (or third-spec) layout under the three flows as
// ASCII to w and as SVG files into dir (skipped when dir is empty).
func (s *Suite) Fig9(w io.Writer, dir string, cfg TableIIConfig) error {
	spec := s.Specs[0]
	for _, sp := range s.Specs {
		if strings.HasSuffix(sp.Name, "SkrSkr-1") {
			spec = sp
		}
	}
	nl, err := s.Netlist(spec)
	if err != nil {
		return err
	}
	ccfg := cfg.coreConfig(spec)
	datapath := map[int]bool{}
	ids, _ := core.OracleIdentifier{}.Identify(context.Background(), nl)
	for _, c := range ids {
		datapath[c] = true
	}
	dg := dspgraph.Build(nl, dspgraph.Config{Stages: cfg.Stages})
	dpGraph := dg.Filter(func(id int) bool { return datapath[id] })
	var edges [][2]int
	for _, e := range dpGraph.Edges {
		edges = append(edges, [2]int{e.From, e.To})
	}
	fmt.Fprintf(w, "Fig 9: Datapath visualizations of the %s placement layout.\n", spec.Name)
	fmt.Fprintf(w, "(PSdist = mean Manhattan distance of datapath DSPs from the PS corner)\n")
	render := func(flow string, run func() (*core.Result, error)) error {
		res, err := run()
		if err != nil {
			return fmt.Errorf("fig9 %s: %w", flow, err)
		}
		fmt.Fprintf(w, "\n--- %s (PSdist %.1f) ---\n%s", flow,
			metrics.DatapathPSDistance(s.Dev, ids, res.Pos),
			viz.ASCII(s.Dev, nl, res.Pos, datapath, 72, 30))
		if dir != "" {
			svg := viz.SVG(s.Dev, nl, res.Pos, datapath, edges)
			path := filepath.Join(dir, fmt.Sprintf("fig9_%s_%s.svg", spec.Name, flow))
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "(SVG written to %s)\n", path)
		}
		return nil
	}
	if err := render("vivado", func() (*core.Result, error) {
		return core.RunBaseline(context.Background(), s.Dev, nl, placer.ModeVivado, ccfg)
	}); err != nil {
		return err
	}
	if err := render("amf", func() (*core.Result, error) {
		return core.RunBaseline(context.Background(), s.Dev, nl, placer.ModeAMF, ccfg)
	}); err != nil {
		return err
	}
	return render("dsplacer", func() (*core.Result, error) {
		return core.Run(context.Background(), s.Dev, nl, ccfg)
	})
}

// MiniSpecs returns scaled-down variants of the Table-I benchmarks for fast
// tests and the quickstart example: same structure, ~1/16 the cells.
func MiniSpecs() []gen.Spec {
	full := gen.TableI()
	out := make([]gen.Spec, len(full))
	for i, s := range full {
		out[i] = gen.Spec{
			Name:    "mini-" + s.Name,
			LUT:     s.LUT / 16,
			LUTRAM:  s.LUTRAM / 16,
			FF:      s.FF / 16,
			BRAM:    s.BRAM / 8,
			DSP:     s.DSP / 8,
			FreqMHz: s.FreqMHz,
			Seed:    s.Seed,
		}
	}
	return out
}
