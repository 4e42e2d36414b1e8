package experiments

import (
	"bytes"
	"strings"
	"testing"

	"dsplacer/internal/gen"
)

// miniSuite uses tiny benchmark variants so the full harness runs in
// test-friendly time.
func miniSuite() *Suite {
	specs := MiniSpecs()[:3]
	return NewSuite(specs)
}

func fastCfg() TableIIConfig {
	return TableIIConfig{MCFIterations: 6, Rounds: 1, Lambda: 100, Seed: 1}
}

func TestTableIPrints(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	if err := s.TableI(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, spec := range s.Specs {
		if !strings.Contains(out, spec.Name) {
			t.Fatalf("missing %s in:\n%s", spec.Name, out)
		}
	}
	if !strings.Contains(out, "freq.(MHz)") {
		t.Fatal("missing header")
	}
}

func TestTableIIRowShape(t *testing.T) {
	s := miniSuite()
	row, err := s.RunTableIIRow(s.Specs[0], fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]FlowMetrics{
		"vivado": row.Vivado, "amf": row.AMF, "dsplacer": row.DSPlacer,
	} {
		if m.HPWL <= 0 || m.Runtime <= 0 {
			t.Fatalf("%s metrics empty: %+v", name, m)
		}
	}
	if row.Profile.Total <= 0 {
		t.Fatal("profile missing")
	}
}

func TestNormalize(t *testing.T) {
	specs := gen.TableI()[:1]
	rows := []*TableIIRow{{
		Benchmark: specs[0].Name,
		Vivado:    FlowMetrics{WNS: -1, TNS: -10, HPWL: 200, Runtime: 5},
		AMF:       FlowMetrics{WNS: -2, TNS: -100, HPWL: 400, Runtime: 20},
		DSPlacer:  FlowMetrics{WNS: 0, TNS: 0, HPWL: 250, Runtime: 10},
	}}
	nv, na := Normalize(rows, specs)
	T := 1000 / specs[0].FreqMHz
	if got, want := nv.WNS, (T+1)/T; !almost(got, want) {
		t.Fatalf("vivado WNS norm %v want %v", got, want)
	}
	if !almost(nv.HPWL, 0.8) || !almost(na.HPWL, 1.6) {
		t.Fatalf("HPWL norms %v %v", nv.HPWL, na.HPWL)
	}
	if !almost(nv.Runtime, 0.5) || !almost(na.Runtime, 2.0) {
		t.Fatalf("runtime norms %v %v", nv.Runtime, na.Runtime)
	}
	if !(na.TNS > nv.TNS) {
		t.Fatal("AMF TNS norm should exceed Vivado's")
	}
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestFig7aOnMinis(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	rows, err := s.Fig7a(&buf, Fig7Config{Epochs: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(s.Specs) {
		t.Fatalf("rows=%d", len(rows))
	}
	sumG, sumS := 0.0, 0.0
	for _, r := range rows {
		if r.GCN < 0 || r.GCN > 1 || r.SVM < 0 || r.SVM > 1 {
			t.Fatalf("accuracy out of range: %+v", r)
		}
		sumG += r.GCN
		sumS += r.SVM
	}
	// The GCN (global features) should beat the local-only SVM on average —
	// the Fig. 7(a) claim.
	if !(sumG >= sumS) {
		t.Fatalf("GCN average %.3f below SVM %.3f", sumG/3, sumS/3)
	}
	if !strings.Contains(buf.String(), "Average") {
		t.Fatal("missing average row")
	}
}

func TestFig7bCurve(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	hist, err := s.Fig7b(&buf, Fig7Config{Epochs: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) < 2 {
		t.Fatalf("history too short: %d", len(hist))
	}
	last := hist[len(hist)-1]
	if last.TrainAcc <= 0 || last.TestAcc <= 0 {
		t.Fatalf("missing accuracy: %+v", last)
	}
}

func TestFig8Profiles(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	if err := s.Fig8(&buf, fastCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"prototype placement", "datapath extraction", "datapath DSP place", "routing"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig9Renders(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	dir := t.TempDir()
	if err := s.Fig9(&buf, dir, fastCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, flow := range []string{"vivado", "amf", "dsplacer"} {
		if !strings.Contains(out, "--- "+flow) {
			t.Fatalf("missing %s layout", flow)
		}
	}
	if !strings.Contains(out, "SVG written") {
		t.Fatal("missing SVG outputs")
	}
}

func TestAblations(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	spec := s.Specs[1]
	if err := s.AblationLambda(&buf, spec, []float64{0, 100}, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if err := s.AblationMCFIterations(&buf, spec, []int{1, 6}, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if err := s.AblationIdentifier(&buf, spec, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if err := s.AblationLegalization(&buf, spec, fastCfg()); err != nil {
		t.Fatal(err)
	}
	if err := s.AblationGCN(&buf, spec, fastCfg(), Fig7Config{Epochs: 15, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lambda sweep") || !strings.Contains(out, "legalization") ||
		!strings.Contains(out, "GCN-identified") {
		t.Fatalf("missing ablation sections:\n%s", out)
	}
}

func TestMiniSpecsGenerate(t *testing.T) {
	s := NewSuite(MiniSpecs())
	for _, spec := range s.Specs {
		nl, err := s.Netlist(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if DatapathCount(nl) == 0 {
			t.Fatalf("%s: no datapath DSPs", spec.Name)
		}
	}
}

func TestExtensionRSAD(t *testing.T) {
	s := miniSuite()
	var buf bytes.Buffer
	if err := s.ExtensionRSAD(&buf, s.Specs[1], fastCfg()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "systolic") || !strings.Contains(out, "rsad") {
		t.Fatalf("missing sections:\n%s", out)
	}
}
