package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) Span {
	return Span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		sp(0, -1, "flow.op", 0, 100),
		sp(1, 0, "placer.PlaceContext", 10, 40),
		sp(2, 0, "sta.Analyze", 50, 60),
		// Two concurrent children overlapping each other: 70..90 is
		// covered once, not twice.
		sp(3, 0, "server.submit", 70, 85),
		sp(4, 0, "server.events", 75, 90),
		// A grandchild: it reduces its parent's self time, not the root's.
		sp(5, 1, "detailed.Refine", 20, 30),
	}
	want := map[int]time.Duration{0: 100 - 30 - 10 - 20, 1: 30 - 10, 2: 10, 3: 15, 4: 15, 5: 10}
	got := SelfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d (%s): self %v, want %v", id, spans[id].Name, got[id], w)
		}
	}
}

func TestSelfTimesClipsChildrenToParent(t *testing.T) {
	spans := []Span{sp(0, -1, "flow.op", 10, 20), sp(1, 0, "gcn.Predict", 5, 15)}
	if got := SelfTimes(spans)[0]; got != 5 {
		t.Fatalf("self %v, want 5 (child clipped to the parent's interval)", got)
	}
}

func TestByLayerAccountsForOpTime(t *testing.T) {
	spans := []Span{
		sp(0, -1, "flow.a", 0, 100),
		sp(1, 0, "placer.PlaceContext", 0, 60),
		sp(2, 1, "placer.inner", 10, 20), // nested in its own layer
		sp(3, 0, "sta.Analyze", 60, 70),
		sp(4, -1, "flow.b", 200, 250),
		sp(5, 4, "sta.NetCriticality", 210, 220),
	}
	layers, opTime := ByLayer(spans)
	if opTime != 150 {
		t.Fatalf("op time %v, want 150", opTime)
	}
	var sum time.Duration
	for _, st := range layers {
		sum += st.Self
	}
	if sum != opTime {
		t.Fatalf("layer self times sum to %v, op time is %v", sum, opTime)
	}
	if p := layers["placer"]; p.Calls != 1 || p.Busy != 60 || p.Self != 60 {
		t.Errorf("placer %+v, want 1 call, busy 60, self 60", *p)
	}
	if s := layers["sta"]; s.Calls != 2 || s.Busy != 20 || s.Self != 20 {
		t.Errorf("sta %+v, want 2 calls, busy 20, self 20", *s)
	}
	if f := layers["flow"]; f.Calls != 2 || f.Self != 30+40 {
		t.Errorf("flow %+v, want 2 calls, self 70", *f)
	}
}
