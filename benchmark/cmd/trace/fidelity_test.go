package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestCompareQoR(t *testing.T) {
	base := QoR{HPWL: 16268.1, WNS: 2.5798, TNS: -36.54714285714288}
	next := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, c := range []struct {
		name    string
		got     QoR
		err     bool
		tnsBits bool
	}{
		{"identical", base, false, false},
		{"HPWL one ulp off", QoR{next(base.HPWL), base.WNS, base.TNS}, true, false},
		{"WNS one ulp off", QoR{base.HPWL, next(base.WNS), base.TNS}, true, false},
		// Two identical AMF analyses of mini-SkrSkr-2 gave these TNS sums:
		// sta.Analyze adds endpoint slacks in map order.
		{"TNS map-order sum", QoR{base.HPWL, base.WNS, -36.547142857142866}, false, true},
		{"TNS off by more than 1e-9", QoR{base.HPWL, base.WNS, base.TNS * (1 + 1e-8)}, true, false},
		{"TNS met against violated", QoR{base.HPWL, base.WNS, 0}, true, false},
	} {
		f := CompareQoR(c.got, base)
		if (f.Err != nil) != c.err || f.TNSBits != c.tnsBits {
			t.Errorf("%s: got err=%v tnsBits=%v, want err=%v tnsBits=%v", c.name, f.Err, f.TNSBits, c.err, c.tnsBits)
		}
	}
	zero := QoR{HPWL: 1, WNS: 1}
	if f := CompareQoR(zero, zero); f.Err != nil || f.TNSBits {
		t.Errorf("met timing on both sides: %+v", f)
	}
}

func TestCompareIDs(t *testing.T) {
	if f := CompareIDs([]int{3, 5, 9}, []int{3, 5, 9}); f.Err != nil {
		t.Errorf("equal ids: %v", f.Err)
	}
	for _, got := range [][]int{{3, 5}, {3, 9, 5}, {3, 5, 10}, nil} {
		if f := CompareIDs(got, []int{3, 5, 9}); f.Err == nil {
			t.Errorf("ids %v matched {3 5 9}", got)
		}
	}
}

// TestBenchmarkJSONListsPerLayerMetrics keeps BENCHMARK.json's per_layer
// list and the metrics this runner prints the same, in the same order.
func TestBenchmarkJSONListsPerLayerMetrics(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the runner prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if doc.PerLayer[i].Name != d.name || doc.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d] = %s (%s), runner prints %s (%s)", i,
				doc.PerLayer[i].Name, doc.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}
