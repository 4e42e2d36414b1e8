// Package jobs is the bounded-concurrency job scheduler behind the
// dsplacerd placement service (DESIGN.md §11, §14).
//
// Jobs enter per-tenant FIFO queues and are executed by a fixed pool of
// workers that drain the tenants with weighted deficit round-robin: each
// tenant is visited in turn and may dispatch up to its weight in jobs
// before the scheduler moves on, so one tenant flooding its queue cannot
// starve the others. Admission is bounded twice — a global QueueDepth
// across all tenants (ErrQueueFull) and a per-tenant quota
// (ErrQuotaExceeded, surfaced as 429 by the HTTP layer).
//
// Each job runs under its own context.Context so it can be canceled
// individually (DELETE /v1/jobs/{id}) or expired by a per-job deadline;
// placement flows observe that context at every stage boundary and inside
// the MCF assignment loop (internal/core, internal/assign).
//
// Lifecycle: Queued → Running → Done | Failed | Canceled. Terminal jobs are
// retained so clients can poll for results, and evicted by a janitor once
// they have been terminal for Config.ResultTTL. An Options.Observer is
// notified (outside the scheduler lock) at the Running and terminal
// transitions, which feeds the job-event stream.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's position in the Queued → Running → terminal lifecycle.
type State int

const (
	Queued State = iota
	Running
	Done     // fn returned a result
	Failed   // fn returned an error
	Canceled // canceled while queued, or fn returned with the job context canceled
)

func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Canceled:
		return "canceled"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Canceled }

var (
	// ErrQueueFull is returned by Submit when the global queue is at capacity.
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrQuotaExceeded is returned by Submit when the submitting tenant has
	// reached its per-tenant queued-job quota while the global queue still
	// has room. The HTTP layer maps it to 429.
	ErrQuotaExceeded = errors.New("jobs: tenant quota exceeded")
	// ErrDraining is returned by Submit after Shutdown has begun.
	ErrDraining = errors.New("jobs: scheduler draining")
	// ErrNotFound is returned by Get/Cancel/Wait for an unknown (or evicted) ID.
	ErrNotFound = errors.New("jobs: no such job")
)

// DefaultTenant is the fair-share queue used when Options.Tenant is empty.
const DefaultTenant = "default"

// Fn is the unit of work. It must return promptly once ctx is done; the
// scheduler classifies an error wrapping ctx's cancellation or deadline,
// returned while ctx is done, as Canceled.
type Fn func(ctx context.Context) (any, error)

// Options tune a single submission.
type Options struct {
	// Timeout bounds the job's wall time from the moment it starts
	// running (queue wait does not count). Zero means no deadline.
	Timeout time.Duration
	// Tenant selects the fair-share queue ("" = DefaultTenant). Tenants
	// share the worker pool under weighted deficit round-robin and are
	// individually bounded by Config.TenantQuota.
	Tenant string
	// Observer, when non-nil, is called with a snapshot at the Running
	// transition and once at the terminal transition. It runs outside the
	// scheduler lock (it may call back into the scheduler) but must return
	// promptly: it executes on the worker goroutine.
	Observer func(Snapshot)
}

// Config tunes a Scheduler. Zero values select the documented defaults.
type Config struct {
	Workers    int           // concurrent jobs; default 2
	QueueDepth int           // max jobs waiting to run, all tenants; default 64
	ResultTTL  time.Duration // how long terminal jobs stay pollable; default 10m

	// TenantQuota caps the queued jobs of any single tenant; default
	// QueueDepth (i.e. only the global bound applies).
	TenantQuota int
	// TenantWeights sets per-tenant round-robin weights: a tenant with
	// weight w dispatches up to w jobs per scheduler visit. Unlisted
	// tenants (and weights < 1) get weight 1.
	TenantWeights map[string]int

	// janitorEvery overrides the eviction sweep period (tests only).
	janitorEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TenantQuota <= 0 || c.TenantQuota > c.QueueDepth {
		c.TenantQuota = c.QueueDepth
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = 10 * time.Minute
	}
	if c.janitorEvery <= 0 {
		c.janitorEvery = c.ResultTTL / 4
		if c.janitorEvery > time.Minute {
			c.janitorEvery = time.Minute
		}
	}
	return c
}

// job is the scheduler-internal record. All mutable fields are guarded by
// the scheduler mutex; done is closed exactly once on transition to a
// terminal state.
type job struct {
	id       string
	tenant   string
	fn       Fn
	opts     Options
	state    State
	result   any
	err      error
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc // non-nil while Running
	done     chan struct{}
}

// notify delivers a transition snapshot to the job's observer. Callers must
// NOT hold the scheduler mutex.
func (j *job) notify(snap Snapshot) {
	if j.opts.Observer != nil {
		j.opts.Observer(snap)
	}
}

// Snapshot is a race-free copy of a job's externally visible state.
type Snapshot struct {
	ID       string
	Tenant   string
	State    State
	Result   any   // non-nil only when State == Done
	Err      error // non-nil only when State == Failed or Canceled
	Created  time.Time
	Started  time.Time // zero until the job leaves the queue
	Finished time.Time // zero until terminal
}

// TenantStats is one tenant's census entry: live occupancy plus cumulative
// queue-time aggregates for the /metrics SLO gauges.
type TenantStats struct {
	Queued, Running int
	Weight          int
	Started         int64 // jobs that have left the queue (cumulative)
	Rejected        int64 // quota + queue-full rejections charged to this tenant
	QueueWaitTotal  time.Duration
	QueueWaitMax    time.Duration
}

// QueueWaitAvg returns the mean time this tenant's dispatched jobs spent
// queued, or 0 before any dispatch.
func (t TenantStats) QueueWaitAvg() time.Duration {
	if t.Started == 0 {
		return 0
	}
	return t.QueueWaitTotal / time.Duration(t.Started)
}

// Stats is a point-in-time census of the scheduler, for /metrics.
type Stats struct {
	Queued, Running              int
	Done, Failed, Canceled       int64 // cumulative, survive eviction
	QueueDepth, Workers          int
	Submitted, Rejected, Evicted int64
	Tenants                      map[string]TenantStats
}

// tenantQueue is one tenant's FIFO plus its deficit round-robin state and
// queue-time aggregates. Guarded by the scheduler mutex.
type tenantQueue struct {
	name   string
	queue  []*job
	weight int
	credit int // jobs this tenant may still dispatch in its current visit

	running   int
	started   int64
	rejected  int64
	waitTotal time.Duration
	waitMax   time.Duration
}

// Scheduler runs submitted jobs on a bounded worker pool, draining
// per-tenant FIFO queues with weighted deficit round-robin.
type Scheduler struct {
	cfg  Config
	base context.Context // parent of every job context
	stop context.CancelFunc

	mu       sync.Mutex
	seq      int64
	jobs     map[string]*job
	tenants  map[string]*tenantQueue
	active   []string // ring of tenants with non-empty queues
	rr       int      // current position in active
	queued   int      // total queued jobs across tenants
	running  int
	draining bool
	work     chan struct{} // wake signal, capacity QueueDepth
	idle     *sync.Cond    // broadcast when running+queued hits 0

	done, failed, canceled     int64
	submitted, rejected, evict int64

	wg sync.WaitGroup // workers + janitor
}

// New starts a scheduler with cfg.Workers workers and a TTL janitor.
// Call Shutdown to stop it.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	base, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		base:    base,
		stop:    stop,
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantQueue),
		work:    make(chan struct{}, cfg.QueueDepth),
	}
	s.idle = sync.NewCond(&s.mu)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.janitor()
	return s
}

// tenantLocked returns (creating if needed) the named tenant's queue.
func (s *Scheduler) tenantLocked(name string) *tenantQueue {
	tq, ok := s.tenants[name]
	if !ok {
		w := s.cfg.TenantWeights[name]
		if w < 1 {
			w = 1
		}
		tq = &tenantQueue{name: name, weight: w}
		s.tenants[name] = tq
	}
	return tq
}

// Submit enqueues fn on its tenant's queue and returns the new job's ID. It
// fails fast with ErrDraining after Shutdown has begun, ErrQueueFull when
// the global queue is at capacity, and ErrQuotaExceeded when the tenant has
// reached its per-tenant quota.
func (s *Scheduler) Submit(fn Fn, opts Options) (string, error) {
	tenant := opts.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected++
		return "", ErrDraining
	}
	tq := s.tenantLocked(tenant)
	if s.queued >= s.cfg.QueueDepth {
		s.rejected++
		tq.rejected++
		return "", ErrQueueFull
	}
	if len(tq.queue) >= s.cfg.TenantQuota {
		s.rejected++
		tq.rejected++
		return "", fmt.Errorf("%w: tenant %q has %d jobs queued", ErrQuotaExceeded, tenant, len(tq.queue))
	}
	s.seq++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		tenant:  tenant,
		fn:      fn,
		opts:    opts,
		state:   Queued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	if len(tq.queue) == 0 {
		s.active = append(s.active, tenant)
	}
	tq.queue = append(tq.queue, j)
	s.queued++
	s.submitted++
	// Every queued job needs a wake token pending or held by a worker.
	// Tokens can outnumber queued jobs: when Cancel finds none to reclaim
	// because a worker holds it, and a Submit lands before that worker
	// takes the lock, the worker dequeues the new job and the new token
	// is left over. So the send must not block under the lock: a full
	// channel already holds a token for each of at most QueueDepth jobs.
	select {
	case s.work <- struct{}{}:
	default:
	}
	return j.id, nil
}

// Get returns a snapshot of the job, or ErrNotFound if the ID is unknown
// or the job has been evicted.
func (s *Scheduler) Get(id string) (Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	return snapshotLocked(j), nil
}

func snapshotLocked(j *job) Snapshot {
	return Snapshot{
		ID: j.id, Tenant: j.tenant, State: j.state, Result: j.result, Err: j.err,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// removeActiveLocked splices position i out of the active ring, keeping the
// round-robin cursor on the same logical neighbor.
func (s *Scheduler) removeActiveLocked(i int) {
	s.active = append(s.active[:i], s.active[i+1:]...)
	if i < s.rr {
		s.rr--
	}
	if s.rr >= len(s.active) {
		s.rr = 0
	}
}

// nextLocked picks the next job by weighted deficit round-robin: the tenant
// at the cursor dispatches up to `weight` jobs (its credit) before the
// cursor advances. Tenants leave the ring when their queue drains and
// rejoin (with a fresh quantum) on their next submission. Returns nil when
// every queue is empty.
func (s *Scheduler) nextLocked() *job {
	for len(s.active) > 0 {
		if s.rr >= len(s.active) {
			s.rr = 0
		}
		tq := s.tenants[s.active[s.rr]]
		if len(tq.queue) == 0 {
			// Invariant says this cannot happen (Cancel maintains the
			// ring), but stay defensive: drop the empty tenant and move on.
			tq.credit = 0
			s.removeActiveLocked(s.rr)
			continue
		}
		if tq.credit <= 0 {
			tq.credit = tq.weight // new visit: grant the full quantum
		}
		j := tq.queue[0]
		tq.queue = tq.queue[1:]
		tq.credit--
		s.queued--
		if len(tq.queue) == 0 {
			tq.credit = 0
			s.removeActiveLocked(s.rr)
		} else if tq.credit == 0 {
			s.rr = (s.rr + 1) % len(s.active)
		}
		return j
	}
	return nil
}

// Cancel requests cancellation. A queued job transitions to Canceled
// immediately; a running job has its context canceled and transitions once
// its Fn returns (within one assignment iteration for placement flows). A
// terminal job is left untouched — canceling it is a no-op, not an error.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	var notify *Snapshot
	switch j.state {
	case Queued:
		// Splice the entry out of its tenant FIFO so queue length and wake
		// tokens stay 1:1 with runnable jobs: Submit's ErrQueueFull check
		// and the queued gauge both read s.queued, and a leftover token
		// would eventually make Submit block on a full s.work while holding
		// s.mu, wedging every endpoint.
		tq := s.tenants[j.tenant]
		for i, q := range tq.queue {
			if q == j {
				tq.queue = append(tq.queue[:i], tq.queue[i+1:]...)
				s.queued--
				break
			}
		}
		if len(tq.queue) == 0 {
			for i, name := range s.active {
				if name == j.tenant {
					tq.credit = 0
					s.removeActiveLocked(i)
					break
				}
			}
		}
		// Reclaim a wake token unless none is pending; a worker already
		// holding one then dequeues another job or finds none.
		select {
		case <-s.work:
		default:
		}
		snap := s.finishLocked(j, Canceled, nil, fmt.Errorf("jobs: %s canceled while queued", j.id))
		notify = &snap
		s.idleCheckLocked()
	case Running:
		j.cancel() // worker observes the canceled ctx and finishes the job
	}
	s.mu.Unlock()
	if notify != nil {
		j.notify(*notify)
	}
	return nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final snapshot.
func (s *Scheduler) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return Snapshot{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return snapshotLocked(j), nil
}

// Stats returns a census of queue occupancy, cumulative outcomes, and
// per-tenant queue-time aggregates.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	tenants := make(map[string]TenantStats, len(s.tenants))
	for name, tq := range s.tenants {
		tenants[name] = TenantStats{
			Queued: len(tq.queue), Running: tq.running, Weight: tq.weight,
			Started: tq.started, Rejected: tq.rejected,
			QueueWaitTotal: tq.waitTotal, QueueWaitMax: tq.waitMax,
		}
	}
	return Stats{
		Queued: s.queued, Running: s.running,
		Done: s.done, Failed: s.failed, Canceled: s.canceled,
		QueueDepth: s.cfg.QueueDepth, Workers: s.cfg.Workers,
		Submitted: s.submitted, Rejected: s.rejected, Evicted: s.evict,
		Tenants: tenants,
	}
}

// Shutdown rejects new submissions and waits for queued and running jobs to
// finish. If ctx expires first, every remaining job's context is canceled
// and Shutdown keeps waiting for the workers to observe that; the workers
// then exit. Terminal results stay readable through Get until eviction.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.running > 0 || s.queued > 0 {
			s.idle.Wait()
		}
		s.mu.Unlock()
		close(drained)
	}()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.stop() // hard-cancel every running job's context; fns return
		// Workers exit on s.base.Done without taking more queue entries,
		// so cancel whatever is still queued here or the drain never ends.
		s.mu.Lock()
		var stragglers []*job
		var snaps []Snapshot
		for _, tq := range s.tenants {
			for _, j := range tq.queue {
				if j.state == Queued {
					snaps = append(snaps, s.finishLocked(j, Canceled, nil, fmt.Errorf("jobs: %s canceled at shutdown", j.id)))
					stragglers = append(stragglers, j)
				}
			}
			tq.queue = nil
			tq.credit = 0
		}
		s.active = nil
		s.queued = 0
		s.idleCheckLocked()
		s.mu.Unlock()
		for i, j := range stragglers {
			j.notify(snaps[i])
		}
		<-drained
	}
	s.stop() // release workers and janitor
	s.wg.Wait()
	return err
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.base.Done():
			return
		case <-s.work:
		}
		s.mu.Lock()
		// One entry per token: Cancel splices canceled jobs out of their
		// queue, so every entry here is still Queued. Every queue can be
		// empty when Cancel raced a token this worker already received, or
		// when the token is a leftover (see Submit).
		j := s.nextLocked()
		if j == nil {
			s.idleCheckLocked()
			s.mu.Unlock()
			continue
		}
		var ctx context.Context
		var cancel context.CancelFunc
		if j.opts.Timeout > 0 {
			ctx, cancel = context.WithTimeout(s.base, j.opts.Timeout)
		} else {
			ctx, cancel = context.WithCancel(s.base)
		}
		j.state = Running
		j.started = time.Now()
		j.cancel = cancel
		s.running++
		tq := s.tenants[j.tenant]
		tq.running++
		tq.started++
		wait := j.started.Sub(j.created)
		tq.waitTotal += wait
		if wait > tq.waitMax {
			tq.waitMax = wait
		}
		runSnap := snapshotLocked(j)
		s.mu.Unlock()
		j.notify(runSnap)

		res, err := s.run(ctx, j)
		ctxErr := ctx.Err() // read before cancel() makes it non-nil unconditionally
		cancel()

		s.mu.Lock()
		s.running--
		s.tenants[j.tenant].running--
		var endSnap *Snapshot
		if j.state == Running { // Cancel may already have finished a queued job; never here
			var snap Snapshot
			switch {
			// Canceled only when the job's own context was done; an fn
			// that wraps context.Canceled from some internal sub-context
			// is a genuine failure, not a cancellation.
			case err != nil && ctxErr != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
				snap = s.finishLocked(j, Canceled, nil, err)
			case err != nil:
				snap = s.finishLocked(j, Failed, nil, err)
			default:
				snap = s.finishLocked(j, Done, res, nil)
			}
			endSnap = &snap
		}
		s.idleCheckLocked()
		s.mu.Unlock()
		if endSnap != nil {
			j.notify(*endSnap)
		}
	}
}

// run executes the job fn, converting a panic into a Failed error so one
// bad job cannot take down the worker pool.
func (s *Scheduler) run(ctx context.Context, j *job) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("jobs: %s panicked: %v", j.id, r)
		}
	}()
	return j.fn(ctx)
}

// finishLocked moves j to a terminal state and returns its snapshot so the
// caller can notify the observer after releasing s.mu. It drops the job's
// fn, so whatever the closure captured (a request's decoded netlist) is
// freed now rather than when the janitor evicts the job; run reads fn only
// while the job is Running, and a queued job is out of its queue by now.
// Caller holds s.mu.
func (s *Scheduler) finishLocked(j *job, st State, res any, err error) Snapshot {
	j.fn = nil
	j.state = st
	j.result = res
	j.err = err
	j.finished = time.Now()
	switch st {
	case Done:
		s.done++
	case Failed:
		s.failed++
	case Canceled:
		s.canceled++
	}
	close(j.done)
	return snapshotLocked(j)
}

func (s *Scheduler) idleCheckLocked() {
	if s.running == 0 && s.queued == 0 {
		s.idle.Broadcast()
	}
}

// janitor evicts terminal jobs older than ResultTTL.
func (s *Scheduler) janitor() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.janitorEvery)
	defer t.Stop()
	for {
		select {
		case <-s.base.Done():
			return
		case now := <-t.C:
			s.sweep(now)
		}
	}
}

// sweep removes jobs that have been terminal for at least ResultTTL and
// returns how many it evicted.
func (s *Scheduler) sweep(now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, j := range s.jobs {
		if j.state.Terminal() && now.Sub(j.finished) >= s.cfg.ResultTTL {
			delete(s.jobs, id)
			n++
		}
	}
	s.evict += int64(n)
	return n
}
