package gen

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
	"dsplacer/internal/sta"
)

func TestSpecValidate(t *testing.T) {
	base := Small()
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"valid", func(*Spec) {}, ""},
		{"zero-defaults-ok", func(s *Spec) { s.CascadeLen = 0; s.ControlDSPFrac = 0 }, ""},
		{"negative-lut", func(s *Spec) { s.LUT = -1 }, "negative LUT"},
		{"negative-bram", func(s *Spec) { s.BRAM = -5 }, "negative BRAM"},
		{"zero-dsp", func(s *Spec) { s.DSP = 0 }, "DSP count"},
		{"negative-cascade", func(s *Spec) { s.CascadeLen = -2 }, "cascade length"},
		{"nan-frac", func(s *Spec) { s.ControlDSPFrac = math.NaN() }, "control DSP fraction"},
		{"frac-above-one", func(s *Spec) { s.ControlDSPFrac = 1.5 }, "control DSP fraction"},
		{"nan-freq", func(s *Spec) { s.FreqMHz = math.NaN() }, "frequency"},
		{"inf-freq", func(s *Spec) { s.FreqMHz = math.Inf(1) }, "frequency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			err := s.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err=%v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestGenerateRejectsInvalidSpec(t *testing.T) {
	dev := fpga.NewZCU104()
	bad := Small()
	bad.LUT = -3
	if _, err := Generate(bad, dev); err == nil {
		t.Fatal("negative-LUT spec accepted")
	}
	bad = Small()
	bad.ControlDSPFrac = math.NaN()
	if _, err := Generate(bad, dev); err == nil {
		t.Fatal("NaN control fraction accepted")
	}
}

func TestSmallMatchesSpec(t *testing.T) {
	dev := fpga.NewZCU104()
	spec := Small()
	nl, err := Generate(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	s := nl.Stats()
	if s.LUT != spec.LUT || s.LUTRAM != spec.LUTRAM || s.FF != spec.FF ||
		s.BRAM != spec.BRAM || s.DSP != spec.DSP {
		t.Fatalf("stats %+v vs spec %+v", s, spec)
	}
	if err := nl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMacrosAreCascades(t *testing.T) {
	dev := fpga.NewZCU104()
	spec := Small()
	nl, err := Generate(spec, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(nl.Macros) == 0 {
		t.Fatal("no macros generated")
	}
	for _, m := range nl.Macros {
		if len(m) < 2 || len(m) > spec.withDefaults().CascadeLen {
			t.Fatalf("macro of length %d", len(m))
		}
		// Cascade nets exist between successive members.
		g := nl.ToGraph()
		for i := 0; i+1 < len(m); i++ {
			if !slices.Contains(g.Out(m[i]), m[i+1]) {
				t.Fatalf("missing cascade net %d→%d", m[i], m[i+1])
			}
		}
		// Macro members are datapath DSPs.
		for _, c := range m {
			if !nl.Cells[c].DatapathTruth {
				t.Fatalf("macro member %d not labeled datapath", c)
			}
		}
	}
}

func TestControlDSPFraction(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, data := 0, 0
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if nl.Cells[c].DatapathTruth {
			data++
		} else {
			ctrl++
		}
	}
	if ctrl == 0 || data == 0 {
		t.Fatalf("ctrl=%d data=%d", ctrl, data)
	}
	frac := float64(ctrl) / float64(ctrl+data)
	if frac < 0.05 || frac > 0.25 {
		t.Fatalf("control fraction %v out of expected band", frac)
	}
}

func TestPSPortsFixed(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	nPS := 0
	for _, c := range nl.Cells {
		if c.Type == netlist.PSPort {
			nPS++
			if !c.Fixed {
				t.Fatalf("PS port %q not fixed", c.Name)
			}
			if !(c.FixedAt.X <= dev.PS.MaxX+1e-9 && c.FixedAt.Y <= dev.PS.MaxY+1e-9) {
				t.Fatalf("PS port %q at %v outside PS region %v", c.Name, c.FixedAt, dev.PS)
			}
		}
	}
	if nPS != 16 {
		t.Fatalf("PS ports = %d, want 16", nPS)
	}
}

func TestNoCombinationalCycles(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]geom.Point, nl.NumCells())
	for i, c := range nl.Cells {
		if c.Fixed {
			pos[i] = c.FixedAt
		}
	}
	if _, err := sta.Analyze(nl, pos, sta.Options{ClockPeriodNs: 10}); err != nil {
		t.Fatalf("STA rejects generated netlist: %v", err)
	}
}

func TestControlDSPsInFeedbackLoops(t *testing.T) {
	dev := fpga.NewZCU104()
	nl, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	fb := nl.ToGraph().InFeedbackLoop()
	ctrlLoop, dataLoop := 0, 0
	ctrlTot, dataTot := 0, 0
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if nl.Cells[c].DatapathTruth {
			dataTot++
			if fb[c] {
				dataLoop++
			}
		} else {
			ctrlTot++
			if fb[c] {
				ctrlLoop++
			}
		}
	}
	if ctrlLoop != ctrlTot {
		t.Fatalf("only %d/%d control DSPs in feedback loops", ctrlLoop, ctrlTot)
	}
	// A realistic minority of datapath DSPs run in MACC mode and therefore
	// sit in registered loops too — feedback membership alone must NOT
	// separate the classes (that ambiguity is what makes the GCN's global
	// features matter in Fig. 7a).
	frac := float64(dataLoop) / float64(dataTot)
	if frac == 0 || frac > 0.8 {
		t.Fatalf("datapath feedback fraction %.2f outside (0, 0.8]", frac)
	}
}

func TestDeterminism(t *testing.T) {
	dev := fpga.NewZCU104()
	a, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Small(), dev)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumCells() != b.NumCells() || a.NumNets() != b.NumNets() {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Nets {
		if a.Nets[i].Driver != b.Nets[i].Driver || len(a.Nets[i].Sinks) != len(b.Nets[i].Sinks) {
			t.Fatalf("net %d differs", i)
		}
	}
}

func TestTableISpecsGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size generation in -short mode")
	}
	dev := fpga.NewZCU104()
	for _, spec := range TableI() {
		nl, err := Generate(spec, dev)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		s := nl.Stats()
		if s.LUT != spec.LUT || s.DSP != spec.DSP || s.FF != spec.FF ||
			s.BRAM != spec.BRAM || s.LUTRAM != spec.LUTRAM {
			t.Fatalf("%s: stats %+v", spec.Name, s)
		}
		if s.DSP > dev.NumDSPSites() {
			t.Fatalf("%s: DSP count exceeds device", spec.Name)
		}
	}
}
