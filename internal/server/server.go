// Package server implements the dsplacerd HTTP API (DESIGN.md §11, §14): a
// JSON job interface over the placement flows in internal/core, backed by
// the fair-share scheduler in internal/jobs and a pluggable content-addressed
// result cache (internal/cache.Store — in-process LRU, sharded, or peered
// across daemons via cache/remote).
//
// Endpoints:
//
//	POST   /v1/jobs             submit a placement job  → 202 {"id": ..., "state": "queued"}
//	GET    /v1/jobs/{id}        poll a job              → 200 job document
//	GET    /v1/jobs/{id}/events stream progress         → SSE (default) or ?poll=1 long poll
//	DELETE /v1/jobs/{id}        cancel a job            → 202 job document
//	GET    /healthz             liveness                → 200 ok | 503 draining
//	GET    /metrics             Prometheus text: job counts, queue depth,
//	                            per-tenant queue-time SLO gauges, cache and
//	                            peer-cache counters, per-stage histograms
//
// Every job runs under its own context (canceled by DELETE or a per-job
// timeout) and its own stage.Recorder, so concurrent jobs report isolated
// per-stage timings. Concurrent submissions of the same request are
// single-flighted: one placement runs, the rest wait and share its result.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dsplacer/internal/assign"
	"dsplacer/internal/cache"
	"dsplacer/internal/core"
	"dsplacer/internal/fpga"
	"dsplacer/internal/jobs"
	"dsplacer/internal/metrics"
	"dsplacer/internal/netlist"
	"dsplacer/internal/placer"
	"dsplacer/internal/stage"
)

// defaultMaxBodyBytes bounds a request body; the Table-I netlists
// serialize to a few tens of MB.
const defaultMaxBodyBytes = 256 << 20

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	Device       *fpga.Device // target device; default fpga.NewZCU104()
	Jobs         jobs.Config  // scheduler tuning (workers, queue depth, TTL, tenants)
	CacheSize    int          // result cache capacity; default 64
	MaxBodyBytes int64        // request body cap; default 256 MiB

	// Cache, when non-nil, replaces the built-in LRU with any cache.Store —
	// a Sharded store, or a Peered composition reaching other daemons
	// through cache/remote clients. CacheSize is ignored when set.
	Cache cache.Store
}

// scheduler is the slice of *jobs.Scheduler the server uses; tests inject
// failing fakes to exercise error paths the real scheduler cannot produce.
type scheduler interface {
	Submit(fn jobs.Fn, opts jobs.Options) (string, error)
	Get(id string) (jobs.Snapshot, error)
	Cancel(id string) error
	Stats() jobs.Stats
	Shutdown(ctx context.Context) error
}

// Server is the dsplacerd request handler plus its scheduler and cache.
type Server struct {
	dev     *fpga.Device
	sched   scheduler
	cache   cache.Store
	peered  *cache.Peered // non-nil when the store is peered, for /metrics
	mux     *http.ServeMux
	maxBody int64

	draining atomic.Bool
	runs     atomic.Int64 // placements actually computed (cache misses)

	flightMu sync.Mutex
	flights  map[cache.Key]*flight

	hubMu    sync.Mutex
	hubs     map[string]*hub
	eventTTL time.Duration

	histMu sync.Mutex
	hist   map[string]*metrics.Histogram // per-stage wall time, seconds
	counts map[string]int64              // per-stage invocation/event counts
}

// New builds a Server and starts its scheduler. Call Shutdown to drain it.
func New(cfg Config) *Server {
	dev := cfg.Device
	if dev == nil {
		dev = fpga.NewZCU104()
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = defaultMaxBodyBytes
	}
	store := cfg.Cache
	if store == nil {
		store = cache.NewLRU(cfg.CacheSize)
	}
	eventTTL := cfg.Jobs.ResultTTL
	if eventTTL <= 0 {
		eventTTL = 10 * time.Minute // mirror the scheduler's ResultTTL default
	}
	s := &Server{
		dev:      dev,
		sched:    jobs.New(cfg.Jobs),
		cache:    store,
		mux:      http.NewServeMux(),
		maxBody:  maxBody,
		flights:  make(map[cache.Key]*flight),
		hubs:     make(map[string]*hub),
		eventTTL: eventTTL,
		hist:     make(map[string]*metrics.Histogram),
		counts:   make(map[string]int64),
	}
	if p, ok := store.(*cache.Peered); ok {
		s.peered = p
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown begins the drain: new submissions are rejected with 503 while
// queued and running jobs finish (or are canceled when ctx expires).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.sched.Shutdown(ctx)
}

// PlaceRequest is the POST /v1/jobs body.
type PlaceRequest struct {
	// Netlist is the design to place, in the netlist JSON schema.
	Netlist json.RawMessage `json:"netlist"`
	// Flow selects the placement flow: dsplacer (default), vivado or amf.
	Flow string `json:"flow,omitempty"`
	// FreqMHz is the target clock; core defaults (150) apply when zero.
	FreqMHz float64 `json:"freq_mhz,omitempty"`
	Lambda  float64 `json:"lambda,omitempty"`
	Eta     float64 `json:"eta,omitempty"`
	// MCFIters bounds the linearized assignment loop (default 50).
	MCFIters int   `json:"mcf_iters,omitempty"`
	Rounds   int   `json:"rounds,omitempty"`
	Seed     int64 `json:"seed,omitempty"`
	// Device selects the target fabric by registry name (fpga.Names());
	// empty means the server's default device. Unknown names are rejected
	// with 400 and the error lists the registered alternatives. The device
	// is part of the cache key: the same netlist placed on two fabrics is
	// two different results.
	Device string `json:"device,omitempty"`
	// Validate is the stage-boundary DRC gating level: off, final or stages.
	Validate string `json:"validate,omitempty"`
	// Tenant selects the fair-share queue this job is charged to; empty
	// means the default tenant. It does NOT affect the cache key — identical
	// requests from different tenants share one cached placement.
	Tenant string `json:"tenant,omitempty"`
	// TimeoutMS bounds the job's run time once it starts; zero = unlimited.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// JobDoc is the wire form of a job returned by GET/DELETE /v1/jobs/{id}.
type JobDoc struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Tenant   string     `json:"tenant,omitempty"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   *ResultDoc `json:"result,omitempty"`
}

// ResultDoc is the wire form of a completed placement.
type ResultDoc struct {
	Flow         string             `json:"flow"`
	WNS          float64            `json:"wns_ns"`
	TNS          float64            `json:"tns_ns"`
	HPWL         float64            `json:"hpwl"`
	RoutedWL     float64            `json:"routed_wl"`
	Overflow     int                `json:"overflow_edges"`
	RuntimeS     float64            `json:"runtime_s"`
	DatapathDSPs int                `json:"datapath_dsps"`
	Cached       bool               `json:"cached"`
	StagesS      map[string]float64 `json:"stages_s,omitempty"`
	// AssignIterations/AssignStopReason report the MCF loop's length and
	// why it ended ("converged" or "budget"); baseline flows, which run no
	// assignment, omit them.
	AssignIterations int    `json:"assign_iterations,omitempty"`
	AssignStopReason string `json:"assign_stop_reason,omitempty"`
	// AssignTrace is the per-iteration convergence trace of the MCF loop:
	// objective, moved fraction and anchored-HPWL delta per iterate.
	AssignTrace []TraceRowDoc `json:"assign_trace,omitempty"`
}

// TraceRowDoc is one compact convergence-trace row of a ResultDoc.
// HPWLDelta is the previous row's anchored HPWL minus this row's, and 0 on
// the first row of each round.
type TraceRowDoc struct {
	Iter      int     `json:"iter"`
	Objective float64 `json:"objective"`
	MovedFrac float64 `json:"moved_frac"`
	HPWLDelta float64 `json:"hpwl_delta"`
}

// outcome is what a job fn returns: the core result plus the per-job stage
// timing snapshot it was computed under.
type outcome struct {
	res    *core.Result
	stages map[string]stage.Stat
	cached bool
}

// storedOutcome is the cache wire form of an outcome. The cache stores
// opaque bytes (so remote peers can serve them without sharing memory), and
// core.Result is plain exported data, so JSON round-trips it exactly. The
// assignment trace is excluded from Result's own JSON form (it is the one
// bulky diagnostic field) and carried as a separate part here, so cached
// and freshly computed results serve identical documents.
type storedOutcome struct {
	Res    *core.Result          `json:"res"`
	Stages map[string]stage.Stat `json:"stages,omitempty"`
	Trace  []assign.IterStats    `json:"trace,omitempty"`
}

func encodeOutcome(o *outcome) ([]byte, bool) {
	b, err := json.Marshal(storedOutcome{Res: o.res, Stages: o.stages, Trace: o.res.AssignTrace})
	return b, err == nil
}

// decodeOutcome parses a cached value; any corruption reads as a miss, so a
// bad peer byte-stream degrades to recomputation, never to a bad result.
func decodeOutcome(b []byte) (*outcome, bool) {
	var so storedOutcome
	if err := json.Unmarshal(b, &so); err != nil || so.Res == nil {
		return nil, false
	}
	so.Res.AssignTrace = so.Trace
	return &outcome{res: so.Res, stages: so.Stages}, true
}

// flight is one in-progress placement for a cache key. Followers wait on
// done and then read o/err; the leader fills the cache before closing done.
type flight struct {
	done chan struct{}
	o    *outcome
	err  error
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.maxBody)
			return
		}
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req PlaceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Netlist) == 0 {
		httpError(w, http.StatusBadRequest, "missing netlist")
		return
	}
	// The netlist travels through the streaming reader so the service and
	// the CLI share one decode/validate path.
	nl, err := netlist.Read(bytes.NewReader(req.Netlist))
	if err != nil {
		httpError(w, http.StatusBadRequest, "netlist: %v", err)
		return
	}
	flow := req.Flow
	if flow == "" {
		flow = "dsplacer"
	}
	var mode placer.Mode
	switch flow {
	case "dsplacer":
	case "vivado":
		mode = placer.ModeVivado
	case "amf":
		mode = placer.ModeAMF
	default:
		httpError(w, http.StatusBadRequest, "unknown flow %q", flow)
		return
	}
	level := core.ValidateOff
	if req.Validate != "" {
		level, err = core.ParseValidateLevel(req.Validate)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	dev := s.dev
	if req.Device != "" {
		dev, err = fpga.Lookup(req.Device)
		if err != nil {
			// The lookup error lists every registered device, so the 400
			// doubles as a discovery response.
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	cfg := core.Config{
		ClockMHz: req.FreqMHz, Lambda: req.Lambda, Eta: req.Eta,
		MCFIterations: req.MCFIters, Rounds: req.Rounds, Seed: req.Seed,
		Validate: level,
	}
	key := s.requestKey(req, dev, flow, level)

	// The hub exists (with its "queued" event) before the scheduler sees the
	// job, so a worker dispatching immediately can never publish "running"
	// ahead of "queued".
	h := newHub()
	h.publish(stateEvent(jobs.Queued.String(), nil))
	id, err := s.sched.Submit(func(ctx context.Context) (any, error) {
		// The scheduler keeps a job's result until its TTL, so the job
		// keeps only the document it serves, not the outcome's placement.
		o, err := s.place(ctx, key, dev, flow, mode, nl, cfg, h)
		if err != nil {
			return nil, err
		}
		return resultDoc(o), nil
	}, jobs.Options{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Tenant:  req.Tenant,
		Observer: func(snap jobs.Snapshot) {
			h.publish(stateEvent(snap.State.String(), snap.Err))
		},
	})
	switch {
	case errors.Is(err, jobs.ErrDraining):
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	case errors.Is(err, jobs.ErrQuotaExceeded):
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, jobs.ErrQueueFull):
		httpError(w, http.StatusTooManyRequests, "queue full")
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.addHub(id, h)
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": jobs.Queued.String()})
}

// requestKey derives the cache key from the request's semantic inputs:
// netlist bytes, the resolved target device, flow, and every placement
// parameter. The device name is a separate length-prefixed part, so the
// same netlist placed on two fabrics can never share a cached result
// (locally or through a peer cache). Tenant is deliberately excluded.
func (s *Server) requestKey(req PlaceRequest, dev *fpga.Device, flow string, level core.ValidateLevel) cache.Key {
	params := fmt.Sprintf("%s|%g|%g|%g|%d|%d|%d|%d",
		flow, req.FreqMHz, req.Lambda, req.Eta,
		req.MCFIters, req.Rounds, req.Seed, level)
	return cache.KeyOf(req.Netlist, []byte(dev.Name), []byte(params))
}

// cacheGet decodes a stored outcome; decode failure reads as a miss.
func (s *Server) cacheGet(key cache.Key) (*outcome, bool) {
	b, ok := s.cache.Get(key)
	if !ok {
		return nil, false
	}
	return decodeOutcome(b)
}

// place is the job body: cache lookup, single-flight coalescing, full
// placement run under a per-job stage recorder (streamed to the job's hub),
// histogram observation, cache fill.
func (s *Server) place(ctx context.Context, key cache.Key, dev *fpga.Device, flow string, mode placer.Mode, nl *netlist.Netlist, cfg core.Config, h *hub) (*outcome, error) {
	for {
		if o, ok := s.cacheGet(key); ok {
			return &outcome{res: o.res, stages: o.stages, cached: true}, nil
		}
		s.flightMu.Lock()
		if f, ok := s.flights[key]; ok {
			// Same request already computing: wait for the leader instead of
			// burning a second worker on an identical placement.
			s.flightMu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("server: canceled waiting for duplicate run: %w", ctx.Err())
			}
			if f.err == nil {
				return &outcome{res: f.o.res, stages: f.o.stages, cached: true}, nil
			}
			// The leader failed — possibly from its own cancellation, which
			// must not fail this job. Loop and try to become the leader.
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flights[key] = f
		s.flightMu.Unlock()

		o, err := s.runPlacement(ctx, dev, flow, mode, nl, cfg, h)
		if err == nil {
			if b, ok := encodeOutcome(o); ok {
				s.cache.Put(key, b) // fill before releasing followers
			}
		}
		f.o, f.err = o, err
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		close(f.done)
		return o, err
	}
}

// runPlacement executes one real placement (a cache miss) and streams its
// stage boundaries to the job's hub.
func (s *Server) runPlacement(ctx context.Context, dev *fpga.Device, flow string, mode placer.Mode, nl *netlist.Netlist, cfg core.Config, h *hub) (*outcome, error) {
	s.runs.Add(1)
	rec := stage.NewRecorder()
	if h != nil {
		rec.SetObserver(func(name string, d time.Duration, start bool) {
			ev := Event{Type: "stage", Stage: name}
			if start {
				ev.Phase = "start"
			} else {
				ev.Phase = "end"
				ev.ElapsedMS = float64(d) / float64(time.Millisecond)
			}
			h.publish(ev)
		})
	}
	cfg.Stages = rec
	var res *core.Result
	var err error
	if flow == "dsplacer" {
		res, err = core.Run(ctx, dev, nl, cfg)
	} else {
		res, err = core.RunBaseline(ctx, dev, nl, mode, cfg)
	}
	if err != nil {
		return nil, err
	}
	snap := rec.Snapshot()
	s.observeStages(snap)
	return &outcome{res: res, stages: snap}, nil
}

func (s *Server) observeStages(snap map[string]stage.Stat) {
	s.histMu.Lock()
	defer s.histMu.Unlock()
	for name, st := range snap {
		h, ok := s.hist[name]
		if !ok {
			h = metrics.NewHistogram(nil)
			s.hist[name] = h
		}
		h.ObserveDuration(st.Total)
		s.counts[name] += st.Count
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	snap, err := s.sched.Get(r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		httpError(w, http.StatusNotFound, "no such job")
		return
	case err != nil:
		// A scheduler fault must surface as a fault: returning the zero
		// snapshot here reported phantom "queued" jobs for any error.
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, jobDoc(snap))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			httpError(w, http.StatusNotFound, "no such job")
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	snap, err := s.sched.Get(id)
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		// The cancel landed but the janitor evicted the job in the window
		// between Cancel and Get. The cancellation itself succeeded, so
		// answer 202 with the terminal state instead of a bogus 404.
		writeJSON(w, http.StatusAccepted, JobDoc{ID: id, State: jobs.Canceled.String()})
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobDoc(snap))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.sched.Stats()
	cs := s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_submitted_total counter\n")
	fmt.Fprintf(w, "dsplacer_jobs_submitted_total %d\n", st.Submitted)
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_rejected_total counter\n")
	fmt.Fprintf(w, "dsplacer_jobs_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_completed_total counter\n")
	fmt.Fprintf(w, "dsplacer_jobs_completed_total{outcome=\"done\"} %d\n", st.Done)
	fmt.Fprintf(w, "dsplacer_jobs_completed_total{outcome=\"failed\"} %d\n", st.Failed)
	fmt.Fprintf(w, "dsplacer_jobs_completed_total{outcome=\"canceled\"} %d\n", st.Canceled)
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_evicted_total counter\n")
	fmt.Fprintf(w, "dsplacer_jobs_evicted_total %d\n", st.Evicted)
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_queued gauge\n")
	fmt.Fprintf(w, "dsplacer_jobs_queued %d\n", st.Queued)
	fmt.Fprintf(w, "# TYPE dsplacer_jobs_running gauge\n")
	fmt.Fprintf(w, "dsplacer_jobs_running %d\n", st.Running)
	fmt.Fprintf(w, "# TYPE dsplacer_queue_depth_limit gauge\n")
	fmt.Fprintf(w, "dsplacer_queue_depth_limit %d\n", st.QueueDepth)
	fmt.Fprintf(w, "# TYPE dsplacer_workers gauge\n")
	fmt.Fprintf(w, "dsplacer_workers %d\n", st.Workers)
	fmt.Fprintf(w, "# TYPE dsplacer_draining gauge\n")
	fmt.Fprintf(w, "dsplacer_draining %d\n", boolInt(s.draining.Load()))
	fmt.Fprintf(w, "# TYPE dsplacer_placements_total counter\n")
	fmt.Fprintf(w, "dsplacer_placements_total %d\n", s.runs.Load())

	// Per-tenant fair-share occupancy and queue-time SLO gauges.
	tenants := make([]string, 0, len(st.Tenants))
	for name := range st.Tenants {
		tenants = append(tenants, name)
	}
	sort.Strings(tenants)
	if len(tenants) > 0 {
		fmt.Fprintf(w, "# TYPE dsplacer_tenant_jobs gauge\n")
		for _, name := range tenants {
			ts := st.Tenants[name]
			fmt.Fprintf(w, "dsplacer_tenant_jobs{tenant=%q,state=\"queued\"} %d\n", name, ts.Queued)
			fmt.Fprintf(w, "dsplacer_tenant_jobs{tenant=%q,state=\"running\"} %d\n", name, ts.Running)
		}
		fmt.Fprintf(w, "# TYPE dsplacer_tenant_weight gauge\n")
		for _, name := range tenants {
			fmt.Fprintf(w, "dsplacer_tenant_weight{tenant=%q} %d\n", name, st.Tenants[name].Weight)
		}
		fmt.Fprintf(w, "# TYPE dsplacer_tenant_started_total counter\n")
		for _, name := range tenants {
			fmt.Fprintf(w, "dsplacer_tenant_started_total{tenant=%q} %d\n", name, st.Tenants[name].Started)
		}
		fmt.Fprintf(w, "# TYPE dsplacer_tenant_rejected_total counter\n")
		for _, name := range tenants {
			fmt.Fprintf(w, "dsplacer_tenant_rejected_total{tenant=%q} %d\n", name, st.Tenants[name].Rejected)
		}
		fmt.Fprintf(w, "# TYPE dsplacer_tenant_queue_wait_seconds gauge\n")
		for _, name := range tenants {
			ts := st.Tenants[name]
			fmt.Fprintf(w, "dsplacer_tenant_queue_wait_seconds{tenant=%q,stat=\"avg\"} %g\n", name, ts.QueueWaitAvg().Seconds())
			fmt.Fprintf(w, "dsplacer_tenant_queue_wait_seconds{tenant=%q,stat=\"max\"} %g\n", name, ts.QueueWaitMax.Seconds())
		}
	}

	fmt.Fprintf(w, "# TYPE dsplacer_cache_hits_total counter\n")
	fmt.Fprintf(w, "dsplacer_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# TYPE dsplacer_cache_misses_total counter\n")
	fmt.Fprintf(w, "dsplacer_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# TYPE dsplacer_cache_entries gauge\n")
	fmt.Fprintf(w, "dsplacer_cache_entries %d\n", cs.Entries)
	fmt.Fprintf(w, "# TYPE dsplacer_cache_hit_ratio gauge\n")
	fmt.Fprintf(w, "dsplacer_cache_hit_ratio %g\n", cs.HitRatio())
	if s.peered != nil {
		fmt.Fprintf(w, "# TYPE dsplacer_cache_peer_hits_total counter\n")
		fmt.Fprintf(w, "dsplacer_cache_peer_hits_total %d\n", s.peered.PeerHits())
		fmt.Fprintf(w, "# TYPE dsplacer_cache_peer_puts_total counter\n")
		fmt.Fprintf(w, "dsplacer_cache_peer_puts_total %d\n", s.peered.PeerPuts())
	}

	s.histMu.Lock()
	names := make([]string, 0, len(s.hist))
	for name := range s.hist {
		names = append(names, name)
	}
	sort.Strings(names)
	hists := make([]*metrics.Histogram, len(names))
	for i, name := range names {
		hists[i] = s.hist[name]
	}
	countNames := make([]string, 0, len(s.counts))
	for name := range s.counts {
		if s.counts[name] != 0 {
			countNames = append(countNames, name)
		}
	}
	sort.Strings(countNames)
	countVals := make([]int64, len(countNames))
	for i, name := range countNames {
		countVals[i] = s.counts[name]
	}
	s.histMu.Unlock()
	if len(names) > 0 {
		fmt.Fprintf(w, "# TYPE dsplacer_stage_seconds histogram\n")
	}
	for i, name := range names {
		hists[i].WritePrometheus(w, "dsplacer_stage_seconds", "stage", name)
	}
	// Per-stage invocation/event counters: assign iterations and every
	// other stage.Recorder count, aggregated over jobs.
	if len(countNames) > 0 {
		fmt.Fprintf(w, "# TYPE dsplacer_stage_invocations_total counter\n")
	}
	for i, name := range countNames {
		fmt.Fprintf(w, "dsplacer_stage_invocations_total{stage=%q} %d\n", name, countVals[i])
	}
}

func jobDoc(snap jobs.Snapshot) JobDoc {
	doc := JobDoc{
		ID:      snap.ID,
		State:   snap.State.String(),
		Tenant:  snap.Tenant,
		Created: snap.Created,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		doc.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		doc.Finished = &t
	}
	if snap.Err != nil {
		doc.Error = snap.Err.Error()
	}
	if snap.State == jobs.Done {
		doc.Result, _ = snap.Result.(*ResultDoc)
	}
	return doc
}

func resultDoc(o *outcome) *ResultDoc {
	res := o.res
	doc := &ResultDoc{
		Flow: res.Flow, WNS: res.WNS, TNS: res.TNS,
		HPWL: res.HPWL, RoutedWL: res.RoutedWL, Overflow: res.Overflow,
		RuntimeS:     res.Profile.Total.Seconds(),
		DatapathDSPs: len(res.DatapathDSPs),
		Cached:       o.cached,
		StagesS:      make(map[string]float64, len(o.stages)),
	}
	for name, st := range o.stages {
		doc.StagesS[name] = st.Total.Seconds()
	}
	if res.AssignStopReason != "" {
		doc.AssignIterations = res.AssignIterations
		doc.AssignStopReason = res.AssignStopReason
	}
	for k, st := range res.AssignTrace {
		row := TraceRowDoc{Iter: st.Iter, Objective: st.Objective, MovedFrac: st.MovedFrac}
		// Each round's trace restarts at iteration 1.
		if st.Iter > 1 {
			row.HPWLDelta = res.AssignTrace[k-1].HPWL - st.HPWL
		}
		doc.AssignTrace = append(doc.AssignTrace, row)
	}
	return doc
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
