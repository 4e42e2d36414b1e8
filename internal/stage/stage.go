// Package stage provides named wall-clock accumulators wrapped around the
// placer's hot paths (dspgraph build, the assignment loop's candidate/flow
// phases, feature sweeps, experiment rows). It is a dependency-free leaf so
// the hot paths themselves can record into it, and consumers read it
// directly (Snapshot, Report). The counters make parallel-speedup
// work observable — `go run ./cmd/experiments -stages ...` prints the
// table — while staying cheap enough to leave enabled: one mutexed map
// update per stage invocation, never per inner-loop item.
//
// Recording goes through a *Recorder so concurrent flows can each own an
// isolated set of accumulators (the placement daemon gives every job its
// own); the historical package-level functions remain as a shim over the
// process-wide Default recorder, and a nil *Recorder records into Default,
// so single-flow callers need no wiring at all.
package stage

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Stat is one named accumulator's snapshot.
type Stat struct {
	// Count is the number of completed invocations.
	Count int64
	// Total is the summed wall-clock time across invocations. For stages
	// whose invocations overlap in time (parallel rows), Total is CPU-like
	// aggregate work, not elapsed time.
	Total time.Duration
}

// Observer receives live stage activity from a Recorder: one call with
// start=true when a stage invocation begins (d is zero), and one with
// start=false carrying the wall time when it completes. Observers are
// invoked outside the recorder's lock, in publication order per goroutine;
// they must be safe for concurrent use and return promptly (the placement
// daemon fans them out to job-event subscribers).
type Observer func(name string, d time.Duration, start bool)

// Recorder is one isolated set of stage accumulators. All methods are safe
// for concurrent use, and all of them treat a nil receiver as Default, so
// an optional `Stages *stage.Recorder` field needs no nil checks at the
// recording sites.
type Recorder struct {
	mu     sync.Mutex
	stages map[string]*Stat
	obs    Observer
}

// NewRecorder returns an empty, ready-to-use recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Default is the process-wide recorder behind the package-level functions
// and behind every nil *Recorder.
var Default = NewRecorder()

// or resolves the nil-receiver-means-Default contract.
func (r *Recorder) or() *Recorder {
	if r == nil {
		return Default
	}
	return r
}

// SetObserver registers obs to be notified of every Start and Add on this
// recorder (nil disables). The placement daemon uses it to stream per-stage
// progress events for a job without any change to the flows that record.
func (r *Recorder) SetObserver(obs Observer) {
	r = r.or()
	r.mu.Lock()
	r.obs = obs
	r.mu.Unlock()
}

// observer returns the current observer under the lock.
func (r *Recorder) observer() Observer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.obs
}

// Start records the start of one invocation of the named stage and returns
// the function that stops the clock. Intended usage:
//
//	defer rec.Start("dspgraph.build")()
func (r *Recorder) Start(name string) func() {
	rr := r.or()
	if obs := rr.observer(); obs != nil {
		obs(name, 0, true)
	}
	t0 := time.Now()
	return func() { r.Add(name, time.Since(t0)) }
}

// Add folds one completed invocation of duration d into the stage.
func (r *Recorder) Add(name string, d time.Duration) {
	r = r.or()
	r.mu.Lock()
	if r.stages == nil {
		r.stages = make(map[string]*Stat)
	}
	s := r.stages[name]
	if s == nil {
		s = &Stat{}
		r.stages[name] = s
	}
	s.Count++
	s.Total += d
	obs := r.obs
	r.mu.Unlock()
	if obs != nil {
		obs(name, d, false)
	}
}

// AddN folds n events with no duration into the named accumulator, turning
// it into a pure counter (assign iterations executed). Counters share the
// stage namespace and Snapshot, so the daemon's /metrics surfaces them
// without a second registry; observers are not notified — counters are
// aggregates, not invocation boundaries.
func (r *Recorder) AddN(name string, n int64) {
	if n == 0 {
		return
	}
	r = r.or()
	r.mu.Lock()
	if r.stages == nil {
		r.stages = make(map[string]*Stat)
	}
	s := r.stages[name]
	if s == nil {
		s = &Stat{}
		r.stages[name] = s
	}
	s.Count += n
	r.mu.Unlock()
}

// Snapshot returns a copy of every stage accumulator. The Stat values are
// copied under the recorder's lock, so a snapshot taken while other
// goroutines Add is internally consistent: each entry is some complete
// prefix of that stage's Add history, never a torn Count/Total pair.
func (r *Recorder) Snapshot() map[string]Stat {
	r = r.or()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]Stat, len(r.stages))
	for k, v := range r.stages {
		out[k] = *v
	}
	return out
}

// Reset clears all stage accumulators (tests, repeated experiment runs).
func (r *Recorder) Reset() {
	r = r.or()
	r.mu.Lock()
	r.stages = nil
	r.mu.Unlock()
}

// Report writes the accumulators as a fixed-width table, sorted by name so
// output is deterministic.
func (r *Recorder) Report(w io.Writer) {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-32s %8s %14s %14s\n", "stage", "count", "total", "mean")
	for _, k := range names {
		s := snap[k]
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = s.Total / time.Duration(s.Count)
		}
		fmt.Fprintf(w, "%-32s %8d %14s %14s\n", k, s.Count, s.Total, mean)
	}
}

// Start records into the Default recorder; see Recorder.Start.
func Start(name string) func() { return Default.Start(name) }

// Add records into the Default recorder; see Recorder.Add.
func Add(name string, d time.Duration) { Default.Add(name, d) }

// AddN counts into the Default recorder; see Recorder.AddN.
func AddN(name string, n int64) { Default.AddN(name, n) }

// Snapshot snapshots the Default recorder; see Recorder.Snapshot.
func Snapshot() map[string]Stat { return Default.Snapshot() }

// Reset clears the Default recorder; see Recorder.Reset.
func Reset() { Default.Reset() }

// Report reports the Default recorder; see Recorder.Report.
func Report(w io.Writer) { Default.Report(w) }
