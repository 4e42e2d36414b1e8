package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call. Spans of one op share Op; a root span (Parent
// -1) is the op itself and belongs to the "flow" layer, so its self time
// is the composition glue between layer calls.
type Span struct {
	ID, Parent, Op int
	Name           string // "<layer>.<call>"
	Start, End     time.Duration
}

// Layer is the span name's first dot-separated element.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use; serve-mix records from both client goroutines.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts the trace clock.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its id.
func (t *Tracer) Begin(op, parent int, name string) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's duration minus the part of its interval
// that its direct children cover, keyed by span id. Overlapping children
// (concurrent calls under one parent) are counted once.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		curStart, curEnd := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			start, end := max(k.Start, s.Start), min(k.End, s.End)
			if end <= start {
				continue
			}
			if start > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = start, end
			} else if end > curEnd {
				curEnd = end
			}
		}
		covered += curEnd - curStart
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// LayerStats aggregates one layer's spans.
type LayerStats struct {
	Calls int
	Busy  time.Duration // wall time inside the layer's outermost spans
	Self  time.Duration // Busy minus time in child spans of other layers
}

// ByLayer aggregates spans per layer, plus the total duration of the
// root spans (the traced op time). The layers' self times sum to it.
func ByLayer(spans []Span) (map[string]*LayerStats, time.Duration) {
	self := SelfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	out := make(map[string]*LayerStats)
	var opTime time.Duration
	for _, s := range spans {
		st := out[s.Layer()]
		if st == nil {
			st = &LayerStats{}
			out[s.Layer()] = st
		}
		st.Self += self[s.ID]
		if p, ok := byID[s.Parent]; ok && p.Layer() == s.Layer() {
			continue // nested in its own layer: already inside that span's busy time
		}
		st.Calls++
		st.Busy += s.End - s.Start
		if s.Parent < 0 {
			opTime += s.End - s.Start
		}
	}
	return out, opTime
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in µs).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// WriteChrome writes spans as Chrome trace-event JSON, which Perfetto and
// chrome://tracing open; each op is one track.
func WriteChrome(path string, spans []Span) error {
	evs := make([]traceEvent, len(spans))
	for i, s := range spans {
		evs[i] = traceEvent{
			Name: s.Name, Cat: s.Layer(), Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Op,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
