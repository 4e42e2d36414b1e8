package gen

import (
	"slices"
	"strings"
	"testing"

	"dsplacer/internal/drc"
	"dsplacer/internal/fpga"
	"dsplacer/internal/geom"
	"dsplacer/internal/netlist"
	"dsplacer/internal/sta"
)

func TestParseFamilyRoundTrip(t *testing.T) {
	for _, f := range Families() {
		got, err := ParseFamily(f.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Fatalf("ParseFamily(%q) = %v, want %v", f.String(), got, f)
		}
	}
	_, err := ParseFamily("no-such-family")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, f := range Families() {
		if !strings.Contains(err.Error(), f.String()) {
			t.Fatalf("parse error %q does not list %s", err, f)
		}
	}
}

// Every matrix preset must fit the smallest registered device — the matrix
// and the golden harness run the full device × family cross product.
func TestFamilySpecsFitSmallestDevice(t *testing.T) {
	specs := FamilySpecs()
	if len(specs) != int(numFamilies) {
		t.Fatalf("%d presets for %d families", len(specs), numFamilies)
	}
	small := fpga.MustDevice("pynq-z2")
	seen := make(map[Family]bool)
	for _, s := range specs {
		if seen[s.Family] {
			t.Fatalf("two presets for family %v", s.Family)
		}
		seen[s.Family] = true
		if s.DSP > small.NumDSPSites() {
			t.Fatalf("%s needs %d DSPs, %s has %d", s.Name, s.DSP, small.Name, small.NumDSPSites())
		}
		nBRAM := 0
		for _, ci := range small.ColumnsOf(fpga.BRAMRes) {
			nBRAM += small.Columns[ci].NumSites
		}
		if s.BRAM > nBRAM {
			t.Fatalf("%s needs %d BRAMs, %s has %d", s.Name, s.BRAM, small.Name, nBRAM)
		}
	}
}

// greedyAssign builds a legal full DSP site assignment: each cascade macro
// lands on consecutive sites of one column (skipping column boundaries),
// then the remaining DSPs fill the free tail. Failing to find room is a
// test failure — the spec fits the device by construction.
func greedyAssign(t *testing.T, dev *fpga.Device, nl *netlist.Netlist) map[int]int {
	t.Helper()
	sites := dev.DSPSites()
	siteOf := make(map[int]int)
	cursor := 0
	place := func(chain []int) {
		for cursor+len(chain) <= len(sites) {
			jumped := false
			for k := 1; k < len(chain); k++ {
				if sites[cursor+k].Col != sites[cursor].Col {
					cursor += k // advance to the next column start
					jumped = true
					break
				}
			}
			if jumped {
				continue
			}
			for k, c := range chain {
				siteOf[c] = cursor + k
			}
			cursor += len(chain)
			return
		}
		t.Fatalf("no room for a %d-cell macro after site %d/%d", len(chain), cursor, len(sites))
	}
	for _, m := range nl.Macros {
		place(m)
	}
	for _, c := range nl.CellsOfType(netlist.DSP) {
		if _, done := siteOf[c]; !done {
			place([]int{c})
		}
	}
	return siteOf
}

// Across 50 frozen seeds, every family must generate a netlist that passes
// netlist.Validate, meets CheckAssignment's preconditions (macro members
// are DSPs, cascade pairs coherent), and admits a legal cascade-aligned
// assignment on both a small and a large device.
func TestFamiliesAcrossFrozenSeeds(t *testing.T) {
	devices := []*fpga.Device{fpga.MustDevice("pynq-z2"), fpga.MustDevice("zcu104")}
	for _, base := range FamilySpecs() {
		base := base
		t.Run(base.Family.String(), func(t *testing.T) {
			for seed := int64(0); seed < 50; seed++ {
				spec := base
				spec.Seed = 1000 + 17*seed // frozen, distinct per iteration
				dev := devices[seed%int64(len(devices))]
				nl, err := Generate(spec, dev)
				if err != nil {
					t.Fatalf("seed %d on %s: %v", spec.Seed, dev.Name, err)
				}
				if err := nl.Validate(); err != nil {
					t.Fatalf("seed %d on %s: %v", spec.Seed, dev.Name, err)
				}
				got := nl.Stats()
				if got.LUT != spec.LUT || got.LUTRAM != spec.LUTRAM || got.FF != spec.FF ||
					got.BRAM != spec.BRAM || got.DSP != spec.DSP {
					t.Fatalf("seed %d: stats %+v do not match spec", spec.Seed, got)
				}
				siteOf := greedyAssign(t, dev, nl)
				if vs := drc.CheckAssignment(dev, nl, siteOf); len(vs) != 0 {
					t.Fatalf("seed %d on %s: %d DRC violations, first: %v", spec.Seed, dev.Name, len(vs), vs[0])
				}
			}
		})
	}
}

// The three new families must keep the structural invariants the flow
// depends on: all-DSP datapath macros no longer than the cascade length,
// both DSP classes present, and the per-family control share in its band.
func TestFamilyStructure(t *testing.T) {
	dev := fpga.MustDevice("zcu104")
	bands := map[Family][2]float64{
		FamilyCNN:            {0.05, 0.25},
		FamilySparseSystolic: {0.0, 0.10},  // systolic arrays: almost no control DSPs
		FamilyMemMapped:      {0.20, 0.45}, // control-dominated
		FamilyMultiAccel:     {0.05, 0.25},
	}
	for _, spec := range FamilySpecs() {
		spec := spec
		t.Run(spec.Family.String(), func(t *testing.T) {
			nl, err := Generate(spec, dev)
			if err != nil {
				t.Fatal(err)
			}
			if len(nl.Macros) == 0 {
				t.Fatal("no cascade macros")
			}
			maxLen := spec.withDefaults().CascadeLen
			g := nl.ToGraph()
			for _, m := range nl.Macros {
				if len(m) < 2 || len(m) > maxLen {
					t.Fatalf("macro of length %d, cascade length %d", len(m), maxLen)
				}
				for i, c := range m {
					if !nl.Cells[c].DatapathTruth {
						t.Fatalf("macro member %d not labeled datapath", c)
					}
					if i+1 < len(m) && !slices.Contains(g.Out(m[i]), m[i+1]) {
						t.Fatalf("missing cascade net %d→%d", m[i], m[i+1])
					}
				}
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
			band := bands[spec.Family]
			if frac < band[0] || frac > band[1] {
				t.Fatalf("control fraction %.3f outside [%.2f, %.2f]", frac, band[0], band[1])
			}
		})
	}
}

// STA must accept every family: feedback loops (FSMs, MACC accumulation,
// the arbiter ring) are all registered, so no combinational cycle exists.
func TestFamiliesNoCombinationalCycles(t *testing.T) {
	dev := fpga.MustDevice("zcu104")
	for _, spec := range FamilySpecs() {
		spec := spec
		t.Run(spec.Family.String(), func(t *testing.T) {
			nl, err := Generate(spec, dev)
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
				t.Fatalf("STA rejects %s netlist: %v", spec.Family, err)
			}
		})
	}
}

// Same spec, same device → bit-identical netlist (cell, net and macro
// counts plus cell names), for every family. The golden harness and the
// job cache both assume this.
func TestFamilyGenerationDeterministic(t *testing.T) {
	dev := fpga.MustDevice("arria10")
	for _, spec := range FamilySpecs() {
		a, err := Generate(spec, dev)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(spec, dev)
		if err != nil {
			t.Fatal(err)
		}
		if a.NumCells() != b.NumCells() || a.NumNets() != b.NumNets() || len(a.Macros) != len(b.Macros) {
			t.Fatalf("%s generation not deterministic", spec.Family)
		}
		for i := range a.Cells {
			if a.Cells[i].Name != b.Cells[i].Name || a.Cells[i].Type != b.Cells[i].Type {
				t.Fatalf("%s cell %d differs between runs", spec.Family, i)
			}
		}
	}
}
