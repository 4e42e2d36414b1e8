package legalize

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"dsplacer/internal/fpga"
	"dsplacer/internal/mcmf"
	"dsplacer/internal/netlist"
)

func device(t *testing.T) *fpga.Device {
	t.Helper()
	d, err := fpga.NewDevice(fpga.Config{
		Name: "lg", Pattern: "CDC", Repeats: 3, RegionRows: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// dspNetlist builds n DSP cells; macroSpec groups them (indices) into macros.
func dspNetlist(n int, macroSpec [][]int) *netlist.Netlist {
	nl := netlist.New("lg")
	anchor := nl.AddCell("a", netlist.LUT)
	for i := 0; i < n; i++ {
		d := nl.AddCell("d", netlist.DSP)
		nl.AddNet("n", anchor.ID, d.ID)
	}
	for _, m := range macroSpec {
		ids := make([]int, len(m))
		for i, x := range m {
			ids[i] = x + 1 // offset past anchor
		}
		nl.AddMacro(ids)
	}
	return nl
}

// checkLegal verifies the legalized assignment: distinct sites, cascades on
// consecutive rows of one column.
func checkLegal(t *testing.T, dev *fpga.Device, nl *netlist.Netlist, out map[int]int) {
	t.Helper()
	sites := dev.DSPSites()
	used := make(map[int]bool)
	for c, j := range out {
		if used[j] {
			t.Fatalf("site %d used twice", j)
		}
		used[j] = true
		if nl.Cells[c].Type != netlist.DSP {
			t.Fatalf("cell %d not a DSP", c)
		}
	}
	for _, pair := range nl.CascadePairs() {
		jp, okP := out[pair[0]]
		js, okS := out[pair[1]]
		if !okP || !okS {
			continue
		}
		sp, ss := sites[jp], sites[js]
		if sp.Col != ss.Col || ss.Row != sp.Row+1 {
			t.Fatalf("cascade %v broken: %v then %v", pair, sp, ss)
		}
	}
}

func TestLegalizeSinglesKeepSites(t *testing.T) {
	dev := device(t)
	nl := dspNetlist(3, nil)
	in := map[int]int{1: 0, 2: 5, 3: 10}
	out, err := Legalize(dev, nl, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, dev, nl, out)
	// No conflicts and no cascades → placement should be unchanged.
	for c, j := range in {
		if out[c] != j {
			t.Fatalf("cell %d moved from %d to %d without need", c, j, out[c])
		}
	}
}

func TestLegalizeResolvesCollision(t *testing.T) {
	dev := device(t)
	nl := dspNetlist(2, nil)
	in := map[int]int{1: 7, 2: 7}
	out, err := Legalize(dev, nl, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, dev, nl, out)
	if out[1] == out[2] {
		t.Fatal("collision not resolved")
	}
}

func TestLegalizeCascadeAcrossColumns(t *testing.T) {
	dev := device(t)
	// Macro of 3 spread over different columns; must end in one column,
	// consecutive rows.
	nl := dspNetlist(3, [][]int{{0, 1, 2}})
	sites := dev.DSPSites()
	// Pick sites in different columns.
	var a, b, c int
	for j, s := range sites {
		switch s.Col {
		case dev.ColumnsOf(fpga.DSPRes)[0]:
			a = j
		case dev.ColumnsOf(fpga.DSPRes)[1]:
			b = j
		case dev.ColumnsOf(fpga.DSPRes)[2]:
			c = j
		}
	}
	in := map[int]int{1: a, 2: b, 3: c}
	out, err := Legalize(dev, nl, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, dev, nl, out)
}

func TestLegalizeMixedMacrosAndSingles(t *testing.T) {
	dev := device(t)
	nl := dspNetlist(7, [][]int{{0, 1, 2}, {3, 4}})
	in := map[int]int{1: 0, 2: 3, 3: 6, 4: 24, 5: 25, 6: 1, 7: 26}
	out, err := Legalize(dev, nl, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 7 {
		t.Fatalf("lost cells: %v", out)
	}
	checkLegal(t, dev, nl, out)
}

func TestLegalizeOverflowColumnDemand(t *testing.T) {
	dev := device(t)
	perCol := dev.Columns[dev.ColumnsOf(fpga.DSPRes)[0]].NumSites
	// Overfill column 0 with singles all desiring site 0; they must spill
	// into other columns and stay legal.
	n := perCol + 5
	nl := dspNetlist(n, nil)
	in := make(map[int]int, n)
	for i := 0; i < n; i++ {
		in[i+1] = 0 // all on the same site of column 0
	}
	out, err := Legalize(dev, nl, in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkLegal(t, dev, nl, out)
}

// TestLegalizeLongCascadesBounded legalizes a crowded but valid input: ten
// long cascades that all desire the left third of zcu104 (10 groups × 12
// columns). Legalization costs one min-cost flow over groups × columns plus
// at most one repair move per group, so it finishes far inside the bound;
// an exact search over the same 0-1 program can take minutes here.
func TestLegalizeLongCascadesBounded(t *testing.T) {
	dev := fpga.NewZCU104()
	sites := dev.DSPSites()
	rng := rand.New(rand.NewSource(1))
	nl := netlist.New("long")
	anchor := nl.AddCell("a", netlist.LUT)
	in := map[int]int{}
	for m := 0; m < 10; m++ {
		ids := make([]int, 60+rng.Intn(85))
		for k := range ids {
			d := nl.AddCell("d", netlist.DSP)
			nl.AddNet("n", anchor.ID, d.ID)
			ids[k] = d.ID
			in[d.ID] = rng.Intn(len(sites) / 3)
		}
		nl.AddMacro(ids)
	}
	start := time.Now()
	out, err := Legalize(dev, nl, in, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("Legalize took %v, want under 10s", elapsed)
	}
	if len(out) != len(in) {
		t.Fatalf("placed %d of %d DSPs", len(out), len(in))
	}
	checkLegal(t, dev, nl, out)
}

func TestLegalizeErrors(t *testing.T) {
	dev := device(t)
	nl := dspNetlist(2, nil)
	if _, err := Legalize(dev, nl, map[int]int{1: -1}, Options{}); err == nil {
		t.Fatal("invalid site accepted")
	}
	if _, err := Legalize(dev, nl, map[int]int{0: 0}, Options{}); err == nil {
		t.Fatal("non-DSP cell accepted")
	}
	// Macro with a member missing from the assignment.
	nl2 := dspNetlist(2, [][]int{{0, 1}})
	if _, err := Legalize(dev, nl2, map[int]int{1: 0}, Options{}); err == nil {
		t.Fatal("partial macro accepted")
	}
	// Too many DSPs for the device.
	total := dev.NumDSPSites()
	nl3 := dspNetlist(total+1, nil)
	in := make(map[int]int)
	for i := 0; i <= total; i++ {
		in[i+1] = i % total
	}
	if _, err := Legalize(dev, nl3, in, Options{}); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

// bruteIntra enumerates all legal row assignments for tiny instances,
// respecting the same fixed vertical order the paper's Eq. 11 assumes
// (groups sorted by mean desired row): constraint 11a/11b are written for
// index-ordered components, so the oracle must not permute groups.
func bruteIntra(gs []*group, capacity int) float64 {
	order := make([]int, len(gs))
	for i := range order {
		order[i] = i
	}
	meanRow := func(g *group) float64 {
		s := 0.0
		for _, r := range g.desiredRows {
			s += r
		}
		return s / float64(len(g.desiredRows))
	}
	sortStable(order, func(a, b int) bool {
		ma, mb := meanRow(gs[order[a]]), meanRow(gs[order[b]])
		if ma != mb {
			return ma < mb
		}
		return gs[order[a]].cells[0] < gs[order[b]].cells[0]
	})
	best := math.Inf(1)
	starts := make([]int, len(gs))
	var rec func(k, minStart int, acc float64)
	rec = func(k, minStart int, acc float64) {
		if acc >= best {
			return
		}
		if k == len(order) {
			best = acc
			return
		}
		g := gs[order[k]]
		for s := minStart; s+g.size() <= capacity; s++ {
			cost := 0.0
			for m, r := range g.desiredRows {
				cost += math.Abs(float64(s+m) - r)
			}
			starts[order[k]] = s
			rec(k+1, s+g.size(), acc+cost)
		}
	}
	rec(0, 0, 0)
	return best
}

// sortStable is a tiny helper so the test mirrors the production ordering.
func sortStable(idx []int, less func(a, b int) bool) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && less(j, j-1); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func intraCost(gs []*group, starts []int) float64 {
	cost := 0.0
	for k, g := range gs {
		for m, r := range g.desiredRows {
			cost += math.Abs(float64(starts[k]+m) - r)
		}
	}
	return cost
}

// Property: clumping matches brute force on random tiny columns.
func TestIntraColumnOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 6 + rng.Intn(4)
		n := 1 + rng.Intn(3)
		var gs []*group
		used := 0
		cellID := 0
		for i := 0; i < n; i++ {
			size := 1 + rng.Intn(3)
			if used+size > capacity {
				size = 1
			}
			used += size
			if used > capacity {
				break
			}
			g := &group{}
			base := rng.Float64() * float64(capacity-size)
			for m := 0; m < size; m++ {
				g.cells = append(g.cells, cellID)
				cellID++
				g.desiredRows = append(g.desiredRows, base+float64(m)+rng.NormFloat64()*0.3)
			}
			gs = append(gs, g)
		}
		if len(gs) == 0 {
			return true
		}
		starts, err := intraColumn(gs, capacity)
		if err != nil {
			return false
		}
		// Legality.
		occ := map[int]bool{}
		for k, g := range gs {
			for m := 0; m < g.size(); m++ {
				r := starts[k] + m
				if r < 0 || r >= capacity || occ[r] {
					return false
				}
				occ[r] = true
			}
		}
		got := intraCost(gs, starts)
		want := bruteIntra(gs, capacity)
		return got <= want+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bruteInter returns the exact optimum of the 0-1 program Eq. 10 by
// enumerating every column choice of every group, keeping the cheapest
// assignment that fits every column's capacity.
func bruteInter(gs []*group, colX []float64, colCap []int) ([]int, bool) {
	var best []int
	bestCost := math.Inf(1)
	choice := make([]int, len(gs))
	load := make([]int, len(colX))
	var rec func(i int, acc float64)
	rec = func(i int, acc float64) {
		if i == len(gs) {
			if acc < bestCost {
				bestCost = acc
				best = append(best[:0], choice...)
			}
			return
		}
		for j := range colX {
			if load[j]+gs[i].size() > colCap[j] {
				continue
			}
			load[j] += gs[i].size()
			choice[i] = j
			rec(i+1, acc+dcost(gs[i], colX[j]))
			load[j] -= gs[i].size()
		}
	}
	rec(0, 0)
	return best, best != nil
}

// Property: the flow-based inter-column assignment matches the exact 0-1
// optimum of Eq. 10 (by enumeration) on small random instances.
func TestInterColumnFlowMatchesILP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nC := 2 + rng.Intn(3)
		colX := make([]float64, nC)
		colCap := make([]int, nC)
		for j := range colX {
			colX[j] = float64(j * 4)
			colCap[j] = 3 + rng.Intn(3)
		}
		var gs []*group
		total := 0
		for i := 0; i < 3+rng.Intn(3); i++ {
			size := 1 + rng.Intn(2)
			if cap := capSum(colCap); total+size > cap-2 {
				break
			}
			total += size
			g := &group{desiredX: rng.Float64() * colX[nC-1]}
			for m := 0; m < size; m++ {
				g.cells = append(g.cells, len(gs)*10+m)
				g.desiredRows = append(g.desiredRows, 0)
			}
			gs = append(gs, g)
		}
		if len(gs) == 0 {
			return true
		}
		exact, ok := bruteInter(gs, colX, colCap)
		approx, err := interColumnFlow(gs, colX, colCap)
		if !ok || err != nil {
			return false
		}
		ce, ca := 0.0, 0.0
		loadE := make([]int, nC)
		loadA := make([]int, nC)
		for i, g := range gs {
			ce += dcost(g, colX[exact[i]])
			ca += dcost(g, colX[approx[i]])
			loadE[exact[i]] += g.size()
			loadA[approx[i]] += g.size()
		}
		for j := 0; j < nC; j++ {
			if loadE[j] > colCap[j] || loadA[j] > colCap[j] {
				return false
			}
		}
		// Flow heuristic must be feasible and close to exact (within the
		// worst repair detour: one column pitch per group).
		return ca <= ce+float64(len(gs))*4+1e-9 && ce <= ca+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestInterColumnRepairPicksCheapestMove pins the repair step on
// instances whose majority rounding overfills a column. Columns sit one
// pitch apart. Hot column h holds cap[h] = c; m singles desire exactly
// colX[h], and one group of size s, with c-m < s < 2(c-m) and s <= c,
// desires
// colX[h]+δ for 0 < |δ| < pitch/2. In the relaxation each unit of that
// group costs pitch-2|δ| to move next door and a single's costs a pitch,
// so the group keeps c-m units in h and moves s+m-c < c-m: rounding puts
// it in h, which then holds s+m > c. A few other groups desire spots more
// than 1.6 pitches from h. The repair must land within half a pitch of the
// exact optimum; picking a costlier move exceeds that.
func TestInterColumnRepairPicksCheapestMove(t *testing.T) {
	const pitch = 4.0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nC := 3 + rng.Intn(3)
		colX := make([]float64, nC)
		colCap := make([]int, nC)
		for j := range colX {
			colX[j] = pitch * float64(j)
			colCap[j] = 4 + rng.Intn(3)
		}
		h := rng.Intn(nC)
		c := colCap[h]
		m := 1 + rng.Intn(c-2)
		hiS := min(c, 2*(c-m)-1)
		s := c - m + 1 + rng.Intn(hiS-(c-m))
		delta := (0.2 + 1.6*rng.Float64()) * (1 - 2*float64(rng.Intn(2)))
		if h == 0 {
			delta = math.Abs(delta)
		} else if h == nC-1 {
			delta = -math.Abs(delta)
		}
		var gs []*group
		add := func(size int, x float64) {
			g := &group{desiredX: x}
			for k := 0; k < size; k++ {
				g.cells = append(g.cells, len(gs)*10+k)
				g.desiredRows = append(g.desiredRows, 0)
			}
			gs = append(gs, g)
		}
		// The big group goes anywhere in the order, the singles around it.
		big := rng.Intn(m + 1)
		for k := 0; k <= m; k++ {
			if k == big {
				add(s, colX[h]+delta)
			} else {
				add(1, colX[h])
			}
		}
		for k := rng.Intn(3); k > 0; k-- {
			if x := rng.Float64() * colX[nC-1]; math.Abs(x-colX[h]) > 1.6*pitch {
				add(1+rng.Intn(2), x)
			}
		}

		rounded, err := majorityFlow(gs, colX, colCap)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		load := make([]int, nC)
		for i, g := range gs {
			load[rounded[i]] += g.size()
		}
		if rounded[big] != h || load[h] <= c {
			t.Fatalf("seed %d: rounding %v leaves column %d at %d of %d; the instance misses the repair",
				seed, rounded, h, load[h], c)
		}

		exact, ok := bruteInter(gs, colX, colCap)
		got, err := interColumnFlow(gs, colX, colCap)
		if !ok || err != nil {
			for i, g := range gs {
				t.Logf("group %d size %d x %v rounded %d", i, g.size(), g.desiredX, rounded[i])
			}
			t.Logf("caps %v exact %v", colCap, exact)
			t.Fatalf("seed %d: exact ok=%v, flow err=%v", seed, ok, err)
		}
		ce, cg := 0.0, 0.0
		for j := range load {
			load[j] = 0
		}
		for i, g := range gs {
			ce += dcost(g, colX[exact[i]])
			cg += dcost(g, colX[got[i]])
			load[got[i]] += g.size()
		}
		for j := range load {
			if load[j] > colCap[j] {
				t.Fatalf("seed %d: column %d holds %d > %d after repair", seed, j, load[j], colCap[j])
			}
		}
		if cg > ce+pitch/2+1e-9 {
			t.Fatalf("seed %d: repaired cost %v, exact %v: more than half a pitch above", seed, cg, ce)
		}
	}
}

func capSum(caps []int) int {
	s := 0
	for _, c := range caps {
		s += c
	}
	return s
}

// TestInterColumnFlowKeepsFullSearches pins the legalizer's tie-breaking.
// On this instance group 1 (x=3) costs |Δx| = 1 in both column x=2 and
// column x=4, so the optimal split depends on how the shortest-path
// searches break the tie: full searches from the source send it right,
// and majority rounding carries that into the placement. Searches that
// stop once the sink settles send it left. The golden-QoR envelopes stay
// green either way, so only this test notices a change to the legalizer's
// searches.
func TestInterColumnFlowKeepsFullSearches(t *testing.T) {
	colX := []float64{0, 2, 4}
	colCap := []int{3, 3, 2}
	groups := []*group{
		{cells: []int{0}, desiredX: 2, desiredRows: []float64{0}},
		{cells: []int{1}, desiredX: 3, desiredRows: []float64{0}},
	}
	g := mcmf.NewSolver(len(groups) + len(colX) + 2)
	sink := len(groups) + len(colX) + 1
	var refs []mcmf.ArcID
	for i, gr := range groups {
		g.AddEdge(0, 1+i, int64(gr.size()), 0)
		for j, x := range colX {
			refs = append(refs, g.AddEdge(1+i, 1+len(groups)+j, int64(gr.size()), math.Abs(gr.desiredX-x)))
		}
	}
	for j, c := range colCap {
		g.AddEdge(1+len(groups)+j, sink, int64(c), 0)
	}
	if f, _ := g.Solve(0, sink, int64(len(groups))); f != int64(len(groups)) {
		t.Fatalf("flow %d", f)
	}
	full := make([]int64, len(refs))
	for x, r := range refs {
		full[x] = g.Flow(r)
	}
	if want := []int64{0, 1, 0, 0, 0, 1}; !reflect.DeepEqual(full, want) {
		t.Fatalf("full-search flows %v, want %v", full, want)
	}
	got, err := interColumnFlow(groups, colX, colCap)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("interColumnFlow = %v, want %v (the full-search split)", got, want)
	}
}
