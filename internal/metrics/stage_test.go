package metrics

// Stage timers live in internal/stage; this package re-exported them as
// Stage* until the -stages report called stage.Report directly. These tests
// keep their names and check the same behaviour on the stage API itself,
// each on an explicit recorder: there is no process-wide one.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"dsplacer/internal/stage"
)

func TestStageAccumulates(t *testing.T) {
	rec := stage.NewRecorder(nil)
	rec.Add("x", 10*time.Millisecond)
	rec.Add("x", 30*time.Millisecond)
	rec.Add("y", 5*time.Millisecond)
	snap := rec.Snapshot()
	if s := snap["x"]; s.Count != 2 || s.Total != 40*time.Millisecond {
		t.Fatalf("x=%+v", s)
	}
	if s := snap["y"]; s.Count != 1 || s.Total != 5*time.Millisecond {
		t.Fatalf("y=%+v", s)
	}
}

func TestStageStartStops(t *testing.T) {
	rec := stage.NewRecorder(nil)
	stop := rec.Start("timed")
	time.Sleep(time.Millisecond)
	stop()
	s := rec.Snapshot()["timed"]
	if s.Count != 1 || s.Total <= 0 {
		t.Fatalf("timed=%+v", s)
	}
}

func TestStageConcurrentAdds(t *testing.T) {
	rec := stage.NewRecorder(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				rec.Add("c", time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := rec.Snapshot()["c"]; s.Count != 8000 || s.Total != 8000*time.Microsecond {
		t.Fatalf("c=%+v", s)
	}
}

// TestStageReportSortedAndReset checks that Report lists stages by name.
// Recorders have no Reset: a caller that wants a clean slate takes a new
// recorder, which starts empty.
func TestStageReportSortedAndReset(t *testing.T) {
	rec := stage.NewRecorder(nil)
	rec.Add("b.stage", time.Millisecond)
	rec.Add("a.stage", time.Millisecond)
	var sb strings.Builder
	rec.Report(&sb)
	out := sb.String()
	if !strings.Contains(out, "a.stage") || !strings.Contains(out, "b.stage") {
		t.Fatalf("report missing stages:\n%s", out)
	}
	if strings.Index(out, "a.stage") > strings.Index(out, "b.stage") {
		t.Fatalf("report not sorted:\n%s", out)
	}
	rec = stage.NewRecorder(nil)
	if len(rec.Snapshot()) != 0 {
		t.Fatal("a new recorder starts with stages")
	}
}

// TestStageReexports checks that a fresh recorder's snapshot holds exactly
// the stages added to it, each with its own count and total.
func TestStageReexports(t *testing.T) {
	cases := []struct {
		name string
		add  map[string][]time.Duration
		want map[string]stage.Stat
	}{
		{
			name: "single stage single add",
			add:  map[string][]time.Duration{"a": {time.Millisecond}},
			want: map[string]stage.Stat{"a": {Count: 1, Total: time.Millisecond}},
		},
		{
			name: "single stage accumulates",
			add:  map[string][]time.Duration{"a": {time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}},
			want: map[string]stage.Stat{"a": {Count: 3, Total: 6 * time.Millisecond}},
		},
		{
			name: "stages are independent",
			add: map[string][]time.Duration{
				"fast": {time.Microsecond},
				"slow": {time.Second, time.Second},
			},
			want: map[string]stage.Stat{
				"fast": {Count: 1, Total: time.Microsecond},
				"slow": {Count: 2, Total: 2 * time.Second},
			},
		},
		{
			name: "empty recorder",
			add:  nil,
			want: map[string]stage.Stat{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := stage.NewRecorder(nil)
			for name, ds := range tc.add {
				for _, d := range ds {
					rec.Add(name, d)
				}
			}
			snap := rec.Snapshot()
			if len(snap) != len(tc.want) {
				t.Fatalf("snapshot has %d stages, want %d", len(snap), len(tc.want))
			}
			for name, want := range tc.want {
				if got := snap[name]; got != want {
					t.Errorf("stage %q = %+v, want %+v", name, got, want)
				}
			}
		})
	}
}

// TestStageRecorderIsIsolatedFromDefault checks that a recorder shares
// nothing with the nil recorder, the "record nothing" value that a flow
// given no recorder writes to in place of the old process-wide default.
func TestStageRecorderIsIsolatedFromDefault(t *testing.T) {
	var none *stage.Recorder
	rec := stage.NewRecorder(nil)
	rec.Add("private", time.Millisecond)
	if _, ok := none.Snapshot()["private"]; ok {
		t.Fatal("a recorder leaked into the nil recorder")
	}
	none.Add("global", time.Millisecond)
	if _, ok := rec.Snapshot()["global"]; ok {
		t.Fatal("the nil recorder leaked into a recorder")
	}
	if len(none.Snapshot()) != 0 {
		t.Fatalf("the nil recorder kept stages: %v", none.Snapshot())
	}
	var sb strings.Builder
	rec.Report(&sb)
	if !strings.Contains(sb.String(), "private") {
		t.Fatalf("recorder report missing its own stage:\n%s", sb.String())
	}
}

// TestStageRecorderTypeAlias checks that Start on a private recorder records
// one invocation there (the name dates from the metrics.StageRecorder alias).
func TestStageRecorderTypeAlias(t *testing.T) {
	rec := stage.NewRecorder(nil)
	stop := rec.Start("aliased")
	stop()
	if s := rec.Snapshot()["aliased"]; s.Count != 1 {
		t.Fatalf("aliased stage %+v", s)
	}
}
