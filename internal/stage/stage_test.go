package stage

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder(nil)
	r.Add("x", 10*time.Millisecond)
	r.Add("x", 30*time.Millisecond)
	r.Add("y", 5*time.Millisecond)
	snap := r.Snapshot()
	if s := snap["x"]; s.Count != 2 || s.Total != 40*time.Millisecond {
		t.Fatalf("x=%+v", s)
	}
	if s := snap["y"]; s.Count != 1 || s.Total != 5*time.Millisecond {
		t.Fatalf("y=%+v", s)
	}
}

func TestRecorderIsolation(t *testing.T) {
	a, b := NewRecorder(nil), NewRecorder(nil)
	a.Add("private", time.Millisecond)
	b.AddN("counter", 3)
	if _, ok := b.Snapshot()["private"]; ok {
		t.Fatalf("recorder b saw recorder a's stages: %v", b.Snapshot())
	}
	if _, ok := a.Snapshot()["counter"]; ok {
		t.Fatalf("recorder a saw recorder b's stages: %v", a.Snapshot())
	}
	var sb strings.Builder
	a.Report(&sb)
	if !strings.Contains(sb.String(), "private") || strings.Contains(sb.String(), "counter") {
		t.Fatalf("recorder a's report is not its own:\n%s", sb.String())
	}
}

// TestNilRecorderRecordsNothing: a nil *Recorder is the "no recorder"
// value of every optional Stages field. Recording into it is a no-op, and
// reading it gives an empty snapshot and a report with no rows, so a flow
// given no recorder leaves no timings anywhere.
func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	r.Add("nil.add", time.Millisecond)
	r.AddN("nil.count", 2)
	r.Start("nil.start")()
	if snap := r.Snapshot(); snap == nil || len(snap) != 0 {
		t.Fatalf("nil recorder snapshot %v, want empty", snap)
	}
	var sb strings.Builder
	r.Report(&sb)
	if strings.Contains(sb.String(), "nil.") {
		t.Fatalf("nil recorder report has rows:\n%s", sb.String())
	}
}

// TestSnapshotConsistentUnderConcurrentAdd is the mutex-correctness
// property: every Add contributes exactly `unit` to exactly one stage, so
// any Snapshot observed concurrently must satisfy Total == Count×unit per
// stage — a torn Stat read (Count from one Add, Total from another) or an
// unsynchronized map copy breaks the invariant (and trips -race).
func TestSnapshotConsistentUnderConcurrentAdd(t *testing.T) {
	const (
		workers = 8
		adds    = 2000
		unit    = time.Microsecond
	)
	r := NewRecorder(nil)
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	stopSnap := make(chan struct{})
	snapErr := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stopSnap:
				return
			default:
			}
			for name, s := range r.Snapshot() {
				if s.Total != time.Duration(s.Count)*unit {
					select {
					case snapErr <- name:
					default:
					}
					return
				}
			}
		}
	}()
	var addWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		addWG.Add(1)
		go func(w int) {
			defer addWG.Done()
			for j := 0; j < adds; j++ {
				r.Add(names[(w+j)%len(names)], unit)
			}
		}(w)
	}
	addWG.Wait()
	close(stopSnap)
	wg.Wait()
	select {
	case name := <-snapErr:
		t.Fatalf("snapshot observed torn Stat for stage %q", name)
	default:
	}
	var count int64
	for _, s := range r.Snapshot() {
		count += s.Count
	}
	if want := int64(workers * adds); count != want {
		t.Fatalf("lost updates: %d adds recorded, want %d", count, want)
	}
}

func TestRecorderReportSorted(t *testing.T) {
	r := NewRecorder(nil)
	r.Add("b.stage", time.Millisecond)
	r.Add("a.stage", time.Millisecond)
	var sb strings.Builder
	r.Report(&sb)
	out := sb.String()
	if !strings.Contains(out, "a.stage") || !strings.Contains(out, "b.stage") {
		t.Fatalf("report missing stages:\n%s", out)
	}
	if strings.Index(out, "a.stage") > strings.Index(out, "b.stage") {
		t.Fatalf("report not sorted:\n%s", out)
	}
}

// TestObserverSeesStartAndAdd: the observer hook fires once with start=true
// per Start and once with the wall time per Add, so the placement daemon can
// stream stage enter/exit events off an unmodified recording flow. The
// stop function of Start records one timed invocation.
func TestObserverSeesStartAndAdd(t *testing.T) {
	type ev struct {
		name  string
		d     time.Duration
		start bool
	}
	var mu sync.Mutex
	var got []ev
	r := NewRecorder(func(name string, d time.Duration, start bool) {
		mu.Lock()
		got = append(got, ev{name, d, start})
		mu.Unlock()
	})
	stop := r.Start("obs.stage")
	time.Sleep(time.Millisecond)
	stop()
	r.Add("obs.direct", 7*time.Millisecond)
	r.AddN("obs.counter", 2)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 3 {
		t.Fatalf("observer saw %d events, want 3: %+v", len(got), got)
	}
	if got[0] != (ev{"obs.stage", 0, true}) {
		t.Fatalf("first event %+v, want start of obs.stage", got[0])
	}
	if got[1].name != "obs.stage" || got[1].start || got[1].d <= 0 {
		t.Fatalf("second event %+v, want timed end of obs.stage", got[1])
	}
	if got[2] != (ev{"obs.direct", 7 * time.Millisecond, false}) {
		t.Fatalf("third event %+v, want direct Add", got[2])
	}
	// Accumulators are unaffected by observation.
	snap := r.Snapshot()
	if s := snap["obs.stage"]; s.Count != 1 || s.Total <= 0 {
		t.Fatalf("obs.stage=%+v, want one timed invocation", s)
	}
	if s := snap["obs.direct"]; s.Count != 1 || s.Total != 7*time.Millisecond {
		t.Fatalf("obs.direct=%+v", s)
	}
	if s := snap["obs.counter"]; s.Count != 2 || s.Total != 0 {
		t.Fatalf("obs.counter=%+v", s)
	}
}
