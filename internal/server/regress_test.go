package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"dsplacer/internal/core"
	"dsplacer/internal/jobs"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

// fakeScheduler lets tests force error paths the real scheduler cannot
// produce (an internal fault that is not ErrNotFound).
type fakeScheduler struct {
	getErr    error
	cancelErr error
	snap      jobs.Snapshot
}

func (f *fakeScheduler) Submit(fn jobs.Fn, opts jobs.Options) (string, error) { return "job-1", nil }
func (f *fakeScheduler) Get(id string) (jobs.Snapshot, error)                 { return f.snap, f.getErr }
func (f *fakeScheduler) Cancel(id string) error                               { return f.cancelErr }
func (f *fakeScheduler) Stats() jobs.Stats                                    { return jobs.Stats{} }
func (f *fakeScheduler) Shutdown(ctx context.Context) error                   { return nil }

// A scheduler fault on GET must surface as 500 — the old handler swallowed
// every non-NotFound error and answered 200 with a phantom "queued" doc.
func TestGetSchedulerFaultIs500(t *testing.T) {
	env := startServer(t, Config{})
	env.srv.sched = &fakeScheduler{getErr: errors.New("jobs: store wedged")}
	doc, status := env.getJob(t, "job-1")
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (doc %+v)", status, doc)
	}
	if doc.State == jobs.Queued.String() {
		t.Fatal("fault reported as a phantom queued job")
	}
}

// Cancel→Get window: when the janitor evicts the job between a successful
// Cancel and the follow-up Get, the cancellation still succeeded — answer
// 202 with the terminal state, not 404.
func TestCancelEvictionWindowIs202(t *testing.T) {
	env := startServer(t, Config{})
	env.srv.sched = &fakeScheduler{getErr: jobs.ErrNotFound}
	req, _ := http.NewRequest(http.MethodDelete, env.http.URL+"/v1/jobs/job-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
}

// A genuine scheduler fault during Cancel (or the Get after it) is a 500.
func TestCancelSchedulerFaultIs500(t *testing.T) {
	env := startServer(t, Config{})
	for _, fake := range []*fakeScheduler{
		{cancelErr: errors.New("jobs: store wedged")},
		{getErr: errors.New("jobs: store wedged")},
	} {
		env.srv.sched = fake
		req, _ := http.NewRequest(http.MethodDelete, env.http.URL+"/v1/jobs/job-1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("fake %+v: status %d, want 500", fake, resp.StatusCode)
		}
	}
}

// Tenant is not a semantic input: identical work from two tenants shares
// one cache key, and the same inputs always derive the same key.
func TestRequestKeyExcludesTenant(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	req := PlaceRequest{Netlist: []byte(`{"cells":[],"nets":[]}`), Seed: 1}
	k := s.requestKey(req, s.dev, "dsplacer", core.ValidateOff, "off")
	if again := s.requestKey(req, s.dev, "dsplacer", core.ValidateOff, "off"); again != k {
		t.Fatal("same inputs produced a different key")
	}
	req2 := req
	req2.Tenant = "acme"
	if s.requestKey(req2, s.dev, "dsplacer", core.ValidateOff, "off") != k {
		t.Fatal("tenant leaked into the cache key")
	}
}

// Clients may still send a "features" field. It must neither fail the
// request nor split the cache: the daemon's flows extract no features, so
// two requests that differ only in it are the same placement and share one
// cache entry.
func TestFeaturesFieldSharesCacheEntry(t *testing.T) {
	env := startServer(t, Config{})
	nlData := smallNetlistJSON(t, 25)
	for i, features := range []string{"exact", "gsp"} {
		id, status := env.submit(t, map[string]any{
			"netlist":   json.RawMessage(nlData),
			"mcf_iters": 4, "rounds": 1, "seed": 1,
			"features": features,
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit with features %q: status %d", features, status)
		}
		doc := env.pollUntil(t, id, terminal)
		if doc.State != "done" {
			t.Fatalf("job with features %q: state %s (error %q)", features, doc.State, doc.Error)
		}
		if want := i > 0; doc.Result.Cached != want {
			t.Fatalf("job with features %q: cached %v, want %v", features, doc.Result.Cached, want)
		}
	}
	if got := env.srv.runs.Load(); got != 1 {
		t.Fatalf("%d placements ran, want 1", got)
	}
}

// Two concurrent submissions of the identical request must run ONE
// placement: the first becomes the single-flight leader, the second waits
// on it and reports cached. Before the fix both ran (both missed the cache
// before either could fill it).
func TestDuplicateSubmissionsSingleFlight(t *testing.T) {
	env := startServer(t, Config{Jobs: jobs.Config{Workers: 2, QueueDepth: 8}})
	req := map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 71)),
		"rounds":  2, // long enough that the duplicate arrives mid-run
		"seed":    5,
	}
	id1, status := env.submit(t, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", status)
	}
	env.pollUntil(t, id1, func(d JobDoc) bool { return d.State == "running" })
	id2, status := env.submit(t, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", status)
	}
	doc1 := env.pollUntil(t, id1, terminal)
	doc2 := env.pollUntil(t, id2, terminal)
	if doc1.State != "done" || doc2.State != "done" {
		t.Fatalf("states %s / %s (%s %s)", doc1.State, doc2.State, doc1.Error, doc2.Error)
	}
	if got := env.srv.runs.Load(); got != 1 {
		t.Fatalf("%d placements ran for identical concurrent submissions, want 1", got)
	}
	if !doc2.Result.Cached {
		t.Fatal("duplicate submission did not report cached")
	}
	if doc1.Result.Cached {
		t.Fatal("leader reported cached")
	}
	if doc1.Result.HPWL != doc2.Result.HPWL {
		t.Fatalf("coalesced results differ: %g vs %g", doc1.Result.HPWL, doc2.Result.HPWL)
	}
}

// A canceled single-flight leader must not poison its followers: the
// follower retries, becomes the leader, and completes.
func TestSingleFlightFollowerSurvivesLeaderCancel(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	nlData := smallNetlistJSON(t, 73)
	key := s.requestKey(PlaceRequest{Netlist: nlData}, s.dev, "dsplacer", core.ValidateOff, "off")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	var wg sync.WaitGroup
	var leaderErr, followerErr error
	var followerOut *outcome
	wg.Add(2)
	go func() {
		defer wg.Done()
		nl, _ := netlist.Read(bytes.NewReader(nlData))
		close(started)
		_, leaderErr = s.place(leaderCtx, key, s.dev, "dsplacer", placer.ModeVivado, nl, core.Config{Rounds: 50}, nil)
	}()
	go func() {
		defer wg.Done()
		<-started
		time.Sleep(20 * time.Millisecond) // let the leader claim the flight
		nl, _ := netlist.Read(bytes.NewReader(nlData))
		followerOut, followerErr = s.place(context.Background(), key, s.dev, "dsplacer", placer.ModeVivado, nl, core.Config{Rounds: 50}, nil)
	}()
	time.Sleep(60 * time.Millisecond)
	cancelLeader()
	wg.Wait()
	if leaderErr == nil {
		t.Fatal("canceled leader returned no error")
	}
	if followerErr != nil {
		t.Fatalf("follower failed after leader cancel: %v", followerErr)
	}
	if followerOut == nil || followerOut.cached {
		t.Fatalf("follower should have recomputed as the new leader, got %+v", followerOut)
	}
}

// Per-tenant quota exhaustion is load shedding: 429, while another tenant
// still gets in.
func TestTenantQuota429(t *testing.T) {
	env := startServer(t, Config{Jobs: jobs.Config{Workers: 1, QueueDepth: 8, TenantQuota: 1}})
	id1, status := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 81)),
		"rounds":  500,
		"tenant":  "acme",
	})
	if status != http.StatusAccepted {
		t.Fatalf("submit 1: status %d", status)
	}
	env.pollUntil(t, id1, func(d JobDoc) bool { return d.State == "running" })
	// The worker is busy: the next acme job queues (quota 1)...
	if _, status := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 82)), "tenant": "acme",
	}); status != http.StatusAccepted {
		t.Fatalf("submit 2: status %d", status)
	}
	// ...and the one after that trips the quota.
	if _, status := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 83)), "tenant": "acme",
	}); status != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", status)
	}
	// A different tenant is unaffected by acme's backlog.
	if _, status := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 84)), "tenant": "globex",
	}); status != http.StatusAccepted {
		t.Fatalf("other tenant: status %d, want 202", status)
	}
	// Unblock the worker so Cleanup's drain is quick.
	req, _ := http.NewRequest(http.MethodDelete, env.http.URL+"/v1/jobs/"+id1, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

// /metrics carries the per-tenant SLO gauges and the placement counter.
func TestMetricsTenantGauges(t *testing.T) {
	env := startServer(t, Config{})
	id, _ := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 91)),
		"tenant":  "acme",
	})
	env.pollUntil(t, id, terminal)
	resp, err := http.Get(env.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		`dsplacer_tenant_jobs{tenant="acme",state="queued"} 0`,
		`dsplacer_tenant_started_total{tenant="acme"} 1`,
		`dsplacer_tenant_queue_wait_seconds{tenant="acme",stat="avg"}`,
		`dsplacer_tenant_queue_wait_seconds{tenant="acme",stat="max"}`,
		`dsplacer_tenant_weight{tenant="acme"} 1`,
		"dsplacer_placements_total 1",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestTerminalJobKeepsOnlyDocument submits one placement and then the same
// request again and again. Every repeat is a cache hit, which decodes a
// fresh outcome with every cell's position; the scheduler keeps each
// finished job's result until its TTL, so it must keep the served document
// only, not the decoded placement. Each hit still serves the miss's
// document apart from id, timestamps and the cached flag.
func TestTerminalJobKeepsOnlyDocument(t *testing.T) {
	const hits = 40
	env := startServer(t, Config{})
	req := map[string]any{"netlist": json.RawMessage(smallNetlistJSON(t, 91))}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func() JobDoc {
		id, status := env.submit(t, req)
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d", status)
		}
		doc := env.pollUntil(t, id, terminal)
		if doc.State != "done" || doc.Result == nil {
			t.Fatalf("job %s: state %s err %q", id, doc.State, doc.Error)
		}
		return doc
	}
	miss := run()
	if miss.Result.Cached {
		t.Fatal("first run reports a cache hit")
	}

	// What the hits decode, and so what a scheduler that kept their
	// outcomes would retain.
	key := env.srv.requestKey(PlaceRequest{Netlist: smallNetlistJSON(t, 91)}, env.srv.dev,
		"dsplacer", core.ValidateOff, "off")
	before := heap()
	decoded := make([]*outcome, hits)
	for i := range decoded {
		var ok bool
		if decoded[i], ok = env.srv.cacheGet(key); !ok {
			t.Fatal("miss left no cache entry")
		}
	}
	outcomes := int64(heap()) - int64(before)
	runtime.KeepAlive(decoded)
	decoded = nil

	base := heap()
	want := *miss.Result
	want.Cached = true
	for i := 0; i < hits; i++ {
		if got := run(); !reflect.DeepEqual(*got.Result, want) {
			t.Fatalf("hit %d serves %+v, want %+v", i, *got.Result, want)
		}
	}
	if grew := int64(heap()) - int64(base); grew > outcomes/2 {
		t.Fatalf("heap grew %d KB over %d cached jobs, against %d KB for their decoded outcomes: finished jobs keep their outcomes",
			grew>>10, hits, outcomes>>10)
	}
}
