package stage

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder()
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
	a, b := NewRecorder(), NewRecorder()
	a.Add("s", time.Millisecond)
	if got := b.Snapshot(); len(got) != 0 {
		t.Fatalf("recorder b saw recorder a's stages: %v", got)
	}
	if Default.Snapshot()["s"].Count != 0 {
		t.Fatal("dedicated recorder leaked into Default")
	}
	defer Reset()
	Add("default-only", time.Millisecond)
	if _, ok := a.Snapshot()["default-only"]; ok {
		t.Fatal("Default leaked into a dedicated recorder")
	}
}

func TestNilRecorderDelegatesToDefault(t *testing.T) {
	Reset()
	defer Reset()
	var r *Recorder
	r.Add("via-nil", time.Millisecond)
	r.Start("via-nil-start")()
	if s := Snapshot()["via-nil"]; s.Count != 1 {
		t.Fatalf("nil Add did not reach Default: %+v", s)
	}
	if s := r.Snapshot()["via-nil-start"]; s.Count != 1 {
		t.Fatalf("nil Start did not reach Default: %+v", s)
	}
	r.Reset()
	if len(Snapshot()) != 0 {
		t.Fatal("nil Reset did not clear Default")
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
	r := NewRecorder()
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
	r := NewRecorder()
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

func TestPackageShimUsesDefault(t *testing.T) {
	Reset()
	defer Reset()
	Add("shim", 2*time.Millisecond)
	stop := Start("shim-start")
	time.Sleep(time.Millisecond)
	stop()
	if s := Default.Snapshot()["shim"]; s.Count != 1 || s.Total != 2*time.Millisecond {
		t.Fatalf("shim=%+v", s)
	}
	if s := Snapshot()["shim-start"]; s.Count != 1 || s.Total <= 0 {
		t.Fatalf("shim-start=%+v", s)
	}
	var sb strings.Builder
	Report(&sb)
	if !strings.Contains(sb.String(), "shim") {
		t.Fatalf("package Report missing stage:\n%s", sb.String())
	}
}

// TestObserverSeesStartAndAdd: the observer hook fires once with start=true
// per Start and once with the wall time per Add, so the placement daemon can
// stream stage enter/exit events off an unmodified recording flow.
func TestObserverSeesStartAndAdd(t *testing.T) {
	r := NewRecorder()
	type ev struct {
		name  string
		d     time.Duration
		start bool
	}
	var mu sync.Mutex
	var got []ev
	r.SetObserver(func(name string, d time.Duration, start bool) {
		mu.Lock()
		got = append(got, ev{name, d, start})
		mu.Unlock()
	})
	stop := r.Start("obs.stage")
	time.Sleep(time.Millisecond)
	stop()
	r.Add("obs.direct", 7*time.Millisecond)
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
	if s := r.Snapshot()["obs.direct"]; s.Count != 1 || s.Total != 7*time.Millisecond {
		t.Fatalf("obs.direct=%+v", s)
	}
	// Detaching stops delivery.
	r.SetObserver(nil)
	r.Add("obs.after", time.Millisecond)
	if len(got) != 3 {
		t.Fatalf("observer fired after SetObserver(nil): %+v", got)
	}
}
