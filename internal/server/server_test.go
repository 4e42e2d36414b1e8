package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dsplacer/internal/cache"
	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/jobs"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
)

// testEnv is one live server with its HTTP front end.
type testEnv struct {
	srv  *Server
	http *httptest.Server
}

func startServer(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return &testEnv{srv: s, http: ts}
}

func smallNetlistJSON(t *testing.T, seed int64) []byte {
	t.Helper()
	spec := gen.Small()
	spec.Seed = seed
	nl, err := gen.Generate(spec, fpga.NewZCU104())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(nl)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func (e *testEnv) submit(t *testing.T, req map[string]any) (id string, status int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(e.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]string
	json.NewDecoder(resp.Body).Decode(&doc)
	return doc["id"], resp.StatusCode
}

func (e *testEnv) getJob(t *testing.T, id string) (JobDoc, int) {
	t.Helper()
	resp, err := http.Get(e.http.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc JobDoc
	json.NewDecoder(resp.Body).Decode(&doc)
	return doc, resp.StatusCode
}

// pollUntil polls the job until pred says stop, failing on timeout.
func (e *testEnv) pollUntil(t *testing.T, id string, pred func(JobDoc) bool) JobDoc {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		doc, status := e.getJob(t, id)
		if status != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, status)
		}
		if pred(doc) {
			return doc
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, doc.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(doc JobDoc) bool {
	return doc.State == "done" || doc.State == "failed" || doc.State == "canceled"
}

func TestSubmitPollResult(t *testing.T) {
	env := startServer(t, Config{})
	id, status := env.submit(t, map[string]any{
		"netlist":  json.RawMessage(smallNetlistJSON(t, 7)),
		"validate": "final", // success implies the placement is DRC-clean
		"seed":     1,
	})
	if status != http.StatusAccepted || id == "" {
		t.Fatalf("submit: status %d id %q", status, id)
	}
	doc := env.pollUntil(t, id, terminal)
	if doc.State != "done" {
		t.Fatalf("job finished %s: %s", doc.State, doc.Error)
	}
	res := doc.Result
	if res == nil {
		t.Fatal("done job has no result")
	}
	if res.Flow != "dsplacer" || res.HPWL <= 0 || res.DatapathDSPs == 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.Cached {
		t.Fatal("first run reported cached")
	}
	if res.StagesS["assign.solve"] <= 0 || res.StagesS["core.total"] <= 0 {
		t.Fatalf("missing per-job stage timings: %v", res.StagesS)
	}
	if doc.Started == nil || doc.Finished == nil {
		t.Fatalf("missing timestamps: %+v", doc)
	}
}

func TestCancelMidRun(t *testing.T) {
	env := startServer(t, Config{})
	// Enough incremental rounds that the job is still mid-flow when the
	// DELETE lands; cancellation then fires at the next context check.
	id, _ := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 11)),
		"rounds":  500,
	})
	env.pollUntil(t, id, func(d JobDoc) bool { return d.State == "running" })

	req, _ := http.NewRequest(http.MethodDelete, env.http.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}
	start := time.Now()
	doc := env.pollUntil(t, id, terminal)
	if doc.State != "canceled" {
		t.Fatalf("job finished %s, want canceled (err %s)", doc.State, doc.Error)
	}
	if !strings.Contains(doc.Error, core.ErrCanceled.Error()) {
		t.Fatalf("error %q does not surface the ErrCanceled sentinel", doc.Error)
	}
	// A 500-round run takes minutes; a prompt cancel proves the flow
	// observed the context instead of running to completion.
	if waited := time.Since(start); waited > 30*time.Second {
		t.Fatalf("cancellation took %v", waited)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	env := startServer(t, Config{})
	id, _ := env.submit(t, map[string]any{
		"netlist":    json.RawMessage(smallNetlistJSON(t, 13)),
		"rounds":     500,
		"timeout_ms": 50,
	})
	doc := env.pollUntil(t, id, terminal)
	if doc.State != "canceled" {
		t.Fatalf("job finished %s, want canceled: %s", doc.State, doc.Error)
	}
	if !strings.Contains(doc.Error, "deadline") {
		t.Fatalf("error %q does not mention the deadline", doc.Error)
	}
}

func TestCacheHitSkipsSecondRun(t *testing.T) {
	env := startServer(t, Config{})
	req := map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 17)),
		"seed":    3,
	}
	id1, _ := env.submit(t, req)
	doc1 := env.pollUntil(t, id1, terminal)
	if doc1.State != "done" || doc1.Result.Cached {
		t.Fatalf("first run: %s cached=%v", doc1.State, doc1.Result != nil && doc1.Result.Cached)
	}
	id2, _ := env.submit(t, req)
	doc2 := env.pollUntil(t, id2, terminal)
	if doc2.State != "done" || doc2.Result == nil || !doc2.Result.Cached {
		t.Fatalf("identical resubmission was not served from cache: %+v", doc2.Result)
	}
	if doc2.Result.HPWL != doc1.Result.HPWL || doc2.Result.WNS != doc1.Result.WNS {
		t.Fatalf("cached result differs: %+v vs %+v", doc2.Result, doc1.Result)
	}
	if st := env.srv.cache.Stats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v, want exactly one hit", st)
	}
	// A changed parameter must miss.
	req["seed"] = int64(4)
	id3, _ := env.submit(t, req)
	if doc3 := env.pollUntil(t, id3, terminal); doc3.Result == nil || doc3.Result.Cached {
		t.Fatalf("different seed served from cache")
	}
}

// A two-round dsplacer job reports the assign loop's telemetry: its
// iteration count and stop reason, one trace row per iteration whose Iter
// restarts at 1 in each round (where hpwl_delta is 0), the same trace when
// a resubmission is served from the cache, and the iteration count in the
// /metrics assign.iterations counter.
func TestAssignTelemetryTwoRounds(t *testing.T) {
	env := startServer(t, Config{})
	req := map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 91)),
		"rounds":  2,
		"seed":    1,
	}
	id, _ := env.submit(t, req)
	miss := env.pollUntil(t, id, terminal)
	if miss.State != "done" || miss.Result.Cached {
		t.Fatalf("first run: %s (%s)", miss.State, miss.Error)
	}
	res := miss.Result
	if res.AssignIterations == 0 {
		t.Fatal("assign_iterations missing")
	}
	if res.AssignStopReason != "converged" && res.AssignStopReason != "budget" {
		t.Fatalf("assign_stop_reason %q", res.AssignStopReason)
	}
	if len(res.AssignTrace) != res.AssignIterations {
		t.Fatalf("%d trace rows for %d iterations", len(res.AssignTrace), res.AssignIterations)
	}
	rounds := 0
	for k, row := range res.AssignTrace {
		if row.Iter == 1 {
			rounds++
			if row.HPWLDelta != 0 {
				t.Errorf("row %d opens a round with hpwl_delta %g, want 0", k, row.HPWLDelta)
			}
		} else if k == 0 || row.Iter != res.AssignTrace[k-1].Iter+1 {
			t.Errorf("row %d has iter %d; iters must count 1..n within each round", k, row.Iter)
		}
	}
	if rounds != 2 {
		t.Fatalf("trace holds %d rounds, want 2", rounds)
	}

	id, _ = env.submit(t, req)
	hit := env.pollUntil(t, id, terminal)
	if hit.State != "done" || !hit.Result.Cached {
		t.Fatalf("resubmission not served from cache: %s %+v", hit.State, hit.Result)
	}
	if hit.Result.AssignIterations != res.AssignIterations || hit.Result.AssignStopReason != res.AssignStopReason {
		t.Fatalf("cache hit reports %d iterations (%s), miss %d (%s)", hit.Result.AssignIterations,
			hit.Result.AssignStopReason, res.AssignIterations, res.AssignStopReason)
	}
	if !reflect.DeepEqual(hit.Result.AssignTrace, res.AssignTrace) {
		t.Fatal("cache hit serves a different assign_trace")
	}

	resp, err := http.Get(env.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`dsplacer_stage_invocations_total{stage="assign.iterations"} %d`, res.AssignIterations)
	if !strings.Contains(string(body), want+"\n") {
		t.Fatalf("/metrics missing %q:\n%s", want, body)
	}
}

// TestSameRequestSameBytes places one rounds=2 request on two fresh
// servers, so that neither run is a cache hit, and requires the two result
// documents to be byte-identical once their timing fields are zeroed:
// WNS, HPWL and every assign_trace row's objective included.
func TestSameRequestSameBytes(t *testing.T) {
	req := map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 91)),
		"rounds":  2,
		"seed":    1,
	}
	var docs [2][]byte
	for k := range docs {
		env := startServer(t, Config{})
		id, status := env.submit(t, req)
		if status != http.StatusAccepted {
			t.Fatalf("server %d: submit status %d", k, status)
		}
		doc := env.pollUntil(t, id, terminal)
		if doc.State != "done" || doc.Result.Cached {
			t.Fatalf("server %d: %s (%s), cached=%v", k, doc.State, doc.Error, doc.Result != nil && doc.Result.Cached)
		}
		if len(doc.Result.AssignTrace) == 0 {
			t.Fatalf("server %d: empty assign_trace", k)
		}
		doc.Result.RuntimeS = 0
		for name := range doc.Result.StagesS {
			doc.Result.StagesS[name] = 0
		}
		b, err := json.Marshal(doc.Result)
		if err != nil {
			t.Fatal(err)
		}
		docs[k] = b
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Fatalf("same request, different result documents:\n%s\n%s", docs[0], docs[1])
	}
}

func TestDrainOnShutdown(t *testing.T) {
	s := New(Config{Jobs: jobs.Config{Workers: 2, QueueDepth: 8}})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	env := &testEnv{srv: s, http: ts}

	var ids []string
	for i := 0; i < 3; i++ {
		id, status := env.submit(t, map[string]any{
			"netlist": json.RawMessage(smallNetlistJSON(t, int64(20+i))),
		})
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids = append(ids, id)
	}

	done := make(chan error, 1)
	go func() { done <- s.Shutdown(context.Background()) }()

	// The draining flag flips synchronously, so new work is rejected with
	// 503 while the in-flight jobs are still being drained.
	waitForDraining(t, s)
	if _, status := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 99)),
	}); status != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", status)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz during drain: %d, want 503", resp.StatusCode)
		}
	}

	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Every accepted job ran to completion and stays pollable post-drain.
	for _, id := range ids {
		doc, status := env.getJob(t, id)
		if status != http.StatusOK || doc.State != "done" {
			t.Fatalf("job %s after drain: status %d state %s err %s", id, status, doc.State, doc.Error)
		}
	}
}

func waitForDraining(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never flipped")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParallelClientsIsolatedTimings(t *testing.T) {
	env := startServer(t, Config{Jobs: jobs.Config{Workers: 4, QueueDepth: 16}})
	const clients = 4
	var wg sync.WaitGroup
	docs := make([]JobDoc, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct netlists so no request is a cache hit of another.
			id, status := env.submit(t, map[string]any{
				"netlist":  json.RawMessage(smallNetlistJSON(t, int64(40+i))),
				"validate": "final",
			})
			if status != http.StatusAccepted {
				t.Errorf("client %d: submit status %d", i, status)
				return
			}
			docs[i] = env.pollUntil(t, id, terminal)
		}(i)
	}
	wg.Wait()
	for i, doc := range docs {
		if doc.State != "done" {
			t.Fatalf("client %d: %s (%s)", i, doc.State, doc.Error)
		}
		// Isolated recorders: each job carries its own timings, covering
		// exactly one flow (core.total observed once per job).
		if doc.Result.StagesS["core.total"] <= 0 {
			t.Fatalf("client %d missing isolated stage timings: %v", i, doc.Result.StagesS)
		}
	}
}

// TestPlaceIsolationCounts drives the job body directly with different
// round counts in parallel and checks each recorder counted exactly its
// own run's assignment solves — the observable that recorders are not
// shared across concurrent jobs.
func TestPlaceIsolationCounts(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	nlData := smallNetlistJSON(t, 51)
	rounds := []int{1, 3}
	outs := make([]*outcome, len(rounds))
	var wg sync.WaitGroup
	for i, r := range rounds {
		wg.Add(1)
		go func(i, r int) {
			defer wg.Done()
			// Each job decodes its own netlist, as the real submit path
			// does.
			nl, err := netlist.Read(bytes.NewReader(nlData))
			if err != nil {
				t.Error(err)
				return
			}
			key := cache.KeyOf(nlData, []byte(fmt.Sprintf("rounds=%d", r)))
			o, err := s.place(context.Background(), key, s.dev, "dsplacer", placer.ModeVivado, nl, core.Config{Rounds: r}, nil)
			if err != nil {
				t.Errorf("rounds=%d: %v", r, err)
				return
			}
			outs[i] = o
		}(i, r)
	}
	wg.Wait()
	for i, r := range rounds {
		if outs[i] == nil {
			continue
		}
		if got := outs[i].stages["assign.solve"].Count; got != int64(r) {
			t.Fatalf("rounds=%d job counted %d assign.solve calls — recorder not isolated", r, got)
		}
	}
}

// badRequests are POST /v1/jobs bodies the server must answer with 400
// before any job exists. FuzzPlaceRequest seeds its corpus with them.
var badRequests = []struct{ name, body string }{
	{"not json", "nope"},
	{"missing netlist", `{}`},
	{"bad netlist", `{"netlist": {"cells":[{"name":"a","type":"DSP"}],"macros":[[0,9]]}}`},
	{"bad flow", `{"netlist": {"cells":[],"nets":[]}, "flow": "quantum"}`},
	{"bad validate", `{"netlist": {"cells":[],"nets":[]}, "validate": "sometimes"}`},
	{"negative freq_mhz", `{"netlist": {"cells":[],"nets":[]}, "freq_mhz": -150}`},
	{"negative lambda", `{"netlist": {"cells":[],"nets":[]}, "lambda": -1}`},
	{"negative eta", `{"netlist": {"cells":[],"nets":[]}, "eta": -0.5}`},
	{"negative mcf_iters", `{"netlist": {"cells":[],"nets":[]}, "mcf_iters": -3}`},
	{"negative rounds", `{"netlist": {"cells":[],"nets":[]}, "rounds": -1}`},
	{"negative timeout_ms", `{"netlist": {"cells":[],"nets":[]}, "timeout_ms": -1}`},
}

func TestBadRequests(t *testing.T) {
	env := startServer(t, Config{})
	for _, tc := range badRequests {
		resp, err := http.Post(env.http.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	if _, status := env.getJob(t, "job-999999"); status != http.StatusNotFound {
		t.Errorf("unknown job GET: %d, want 404", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, env.http.URL+"/v1/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job DELETE: %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBodyIs413: a body over the cap must be rejected outright
// with 413, not silently truncated into a confusing JSON decode error.
func TestOversizedBodyIs413(t *testing.T) {
	env := startServer(t, Config{MaxBodyBytes: 1 << 10})
	body := bytes.Repeat([]byte("x"), 2<<10)
	resp, err := http.Post(env.http.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var doc map[string]string
	json.NewDecoder(resp.Body).Decode(&doc)
	if !strings.Contains(doc["error"], "exceeds") {
		t.Fatalf("error %q does not explain the body limit", doc["error"])
	}
	// A body under the cap still decodes (and fails for its content, not
	// its size).
	resp2, err := http.Post(env.http.URL+"/v1/jobs", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("small body status %d, want 400", resp2.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	env := startServer(t, Config{})
	id, _ := env.submit(t, map[string]any{
		"netlist": json.RawMessage(smallNetlistJSON(t, 61)),
	})
	env.pollUntil(t, id, terminal)

	resp, err := http.Get(env.http.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	text := sb.String()
	for _, want := range []string{
		"dsplacer_jobs_submitted_total 1",
		`dsplacer_jobs_completed_total{outcome="done"} 1`,
		"dsplacer_jobs_queued 0",
		"dsplacer_cache_misses_total 1",
		"dsplacer_queue_depth_limit",
		`dsplacer_stage_seconds_bucket{stage="core.total",le="+Inf"} 1`,
		`dsplacer_stage_seconds_count{stage="assign.solve"} 1`,
		"dsplacer_draining 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
