package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTest(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestSubmitRunsToDone(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	id, err := s.Submit(func(ctx context.Context) (any, error) { return 42, nil }, Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Done || snap.Result != 42 || snap.Err != nil {
		t.Fatalf("got %v result=%v err=%v, want done/42/nil", snap.State, snap.Result, snap.Err)
	}
	if snap.Started.Before(snap.Created) || snap.Finished.Before(snap.Started) {
		t.Fatalf("timestamps out of order: %+v", snap)
	}
}

func TestFailedJobKeepsError(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	boom := errors.New("boom")
	id, _ := s.Submit(func(ctx context.Context) (any, error) { return nil, boom }, Options{})
	snap, _ := s.Wait(context.Background(), id)
	if snap.State != Failed || !errors.Is(snap.Err, boom) {
		t.Fatalf("got %v err=%v, want failed/boom", snap.State, snap.Err)
	}
}

func TestFIFOOrder(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 16})
	var mu sync.Mutex
	var order []int
	gate := make(chan struct{})
	// First job blocks the single worker so the rest queue up in order.
	s.Submit(func(ctx context.Context) (any, error) { <-gate; return nil, nil }, Options{})
	for i := 0; i < 5; i++ {
		i := i
		s.Submit(func(ctx context.Context) (any, error) {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			return nil, nil
		}, Options{})
	}
	close(gate)
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := len(order)
		mu.Unlock()
		if n == 5 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d jobs ran", n)
		case <-time.After(time.Millisecond):
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v is not FIFO", order)
		}
	}
}

func TestQueueFull(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// One running + two queued fills the scheduler.
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(block, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(block, Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	if got := s.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
}

func TestCancelQueuedIsImmediate(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	defer close(gate)
	s.Submit(func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}, Options{})
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	ran := make(chan struct{})
	id, _ := s.Submit(func(ctx context.Context) (any, error) { close(ran); return nil, nil }, Options{})
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled {
		t.Fatalf("state %v, want Canceled right after Cancel", snap.State)
	}
	// The worker must skip the canceled entry, never run it.
	gate <- struct{}{}
	waitFor(t, func() bool { return s.Stats().Running == 0 && s.Stats().Queued == 0 })
	select {
	case <-ran:
		t.Fatal("canceled queued job still ran")
	default:
	}
}

// TestCancelQueuedFreesQueueSlot pins the fixed accounting: a canceled
// queued job must stop counting against QueueDepth (and the queued gauge)
// immediately, not linger until a worker pops past it.
func TestCancelQueuedFreesQueueSlot(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	defer close(gate)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	id, _ := s.Submit(block, Options{})
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Queued; got != 1 {
		t.Fatalf("queued gauge %d after canceling one of two queued jobs, want 1", got)
	}
	// The canceled job's slot is reusable right away.
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatalf("submit into freed slot: %v", err)
	}
	if _, err := s.Submit(block, Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull once the queue is genuinely full", err)
	}
}

// TestCancelQueuedNoTokenLeak is the REVIEW.md repro (Workers:1,
// QueueDepth:2). Before the fix, Cancel left both the queue entry and its
// wake token behind; a worker then popped multiple entries per token, so a
// stale token lingered in s.work and a later Submit passed the depth check
// but blocked on the full token channel while holding s.mu — wedging Get,
// Cancel and Stats until (if ever) a worker freed a slot.
func TestCancelQueuedNoTokenLeak(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// A occupies the worker; B and C fill the queue.
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	idB, _ := s.Submit(block, Options{})
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(idB); err != nil {
		t.Fatal(err)
	}
	// Finish A so the worker moves on to C; with the bug the worker's one
	// token consumed both B (skipped) and C, stranding a token in s.work.
	release <- struct{}{}
	waitFor(t, func() bool { return s.Stats().Queued == 0 && s.Stats().Running == 1 })

	// Two more submissions fit the depth-2 queue; with a stranded token the
	// second one blocks inside Submit while holding the scheduler mutex.
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			_, err := s.Submit(block, Options{})
			done <- err
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("submit %d after canceled queued job: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Submit deadlocked on a stale wake token")
		}
	}
	// Stats must also be reachable (it shares the mutex Submit would wedge).
	if got := s.Stats().Queued; got != 2 {
		t.Fatalf("queued = %d, want 2", got)
	}
	// Drain everything: C plus the two new jobs.
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 0 && st.Queued == 0
	})
}

// TestSubmitToleratesSurplusWakeToken: a wake token can outlive its job.
// A worker holds the token of queued job A; Cancel(A) finds no token to
// reclaim; Submit(C) adds one; the worker then dequeues C, and C's token is
// left over. Submit must not block on the full channel that this surplus
// can cause while it holds the scheduler mutex (the churn test hit that
// within twenty runs). The test plants the surplus token directly.
func TestSubmitToleratesSurplusWakeToken(t *testing.T) {
	s := newTest(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	if _, err := s.Submit(block, Options{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.Stats().Running == 1 })
	s.work <- struct{}{} // the surplus token
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 2; i++ {
			_, err := s.Submit(block, Options{})
			done <- err
		}
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			<-s.work // unwedge Submit so the cleanup can take the mutex
			t.Fatal("Submit blocked on a full wake-token channel")
		}
	}
	// Both queued jobs still run: the full channel held a token for each.
	for i := 0; i < 3; i++ {
		release <- struct{}{}
	}
	waitFor(t, func() bool {
		st := s.Stats()
		return st.Running == 0 && st.Queued == 0 && st.Done == 3
	})
}

// TestInternalContextErrorIsFailed: an fn error that wraps
// context.Canceled from its own sub-context is a genuine failure — only a
// done job context makes a Canceled classification.
func TestInternalContextErrorIsFailed(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	id, _ := s.Submit(func(ctx context.Context) (any, error) {
		sub, cancel := context.WithCancel(ctx)
		cancel() // an internal sub-operation timing out / being canceled
		return nil, fmt.Errorf("sub-op: %w", sub.Err())
	}, Options{})
	snap, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Failed {
		t.Fatalf("state %v, want Failed: job context was never done", snap.State)
	}
	if st := s.Stats(); st.Failed != 1 || st.Canceled != 0 {
		t.Fatalf("stats %+v, want one Failed and no Canceled", st)
	}
}

func TestCancelRunningPropagatesContext(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	started := make(chan struct{})
	id, _ := s.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, fmt.Errorf("interrupted: %w", ctx.Err())
	}, Options{})
	<-started
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled {
		t.Fatalf("state %v, want Canceled", snap.State)
	}
	if !errors.Is(snap.Err, context.Canceled) {
		t.Fatalf("err %v does not wrap context.Canceled", snap.Err)
	}
}

func TestCancelTerminalIsNoop(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	id, _ := s.Submit(func(ctx context.Context) (any, error) { return 1, nil }, Options{})
	s.Wait(context.Background(), id)
	if err := s.Cancel(id); err != nil {
		t.Fatalf("cancel of terminal job: %v", err)
	}
	snap, _ := s.Get(id)
	if snap.State != Done {
		t.Fatalf("terminal state changed to %v", snap.State)
	}
}

func TestDeadlineExceeded(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	id, _ := s.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}, Options{Timeout: 10 * time.Millisecond})
	snap, err := s.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled || !errors.Is(snap.Err, context.DeadlineExceeded) {
		t.Fatalf("got %v err=%v, want Canceled/DeadlineExceeded", snap.State, snap.Err)
	}
}

func TestPanicBecomesFailed(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	id, _ := s.Submit(func(ctx context.Context) (any, error) { panic("kaboom") }, Options{})
	snap, _ := s.Wait(context.Background(), id)
	if snap.State != Failed || snap.Err == nil {
		t.Fatalf("got %v err=%v, want Failed with error", snap.State, snap.Err)
	}
	// The pool must survive: a later job still runs.
	id2, _ := s.Submit(func(ctx context.Context) (any, error) { return "ok", nil }, Options{})
	if snap, _ := s.Wait(context.Background(), id2); snap.State != Done {
		t.Fatalf("worker pool dead after panic: %v", snap.State)
	}
}

func TestGetUnknownID(t *testing.T) {
	s := newTest(t, Config{})
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestTTLEviction(t *testing.T) {
	// Park the janitor far away so only the explicit sweep below evicts.
	s := newTest(t, Config{Workers: 1, ResultTTL: time.Millisecond, janitorEvery: time.Hour})
	id, _ := s.Submit(func(ctx context.Context) (any, error) { return nil, nil }, Options{})
	s.Wait(context.Background(), id)
	time.Sleep(5 * time.Millisecond)
	if n := s.sweep(time.Now()); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("evicted job still readable: %v", err)
	}
	st := s.Stats()
	if st.Evicted != 1 || st.Done != 1 {
		t.Fatalf("stats %+v: eviction must not erase cumulative Done", st)
	}
}

func TestJanitorRuns(t *testing.T) {
	s := newTest(t, Config{Workers: 1, ResultTTL: time.Millisecond, janitorEvery: time.Millisecond})
	id, _ := s.Submit(func(ctx context.Context) (any, error) { return nil, nil }, Options{})
	s.Wait(context.Background(), id)
	waitFor(t, func() bool {
		_, err := s.Get(id)
		return errors.Is(err, ErrNotFound)
	})
}

func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	var ran atomic.Int64
	slow := func(ctx context.Context) (any, error) {
		time.Sleep(5 * time.Millisecond)
		ran.Add(1)
		return nil, nil
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := s.Submit(slow, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if got := ran.Load(); got != 6 {
		t.Fatalf("%d jobs ran before shutdown returned, want 6", got)
	}
	// Terminal results stay pollable after shutdown.
	for _, id := range ids {
		if snap, err := s.Get(id); err != nil || snap.State != Done {
			t.Fatalf("job %s after shutdown: %v %v", id, snap.State, err)
		}
	}
	// And new submissions are rejected.
	if _, err := s.Submit(slow, Options{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineCancelsStragglers(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	started := make(chan struct{})
	s.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done() // only a hard cancel can free this job
		return nil, ctx.Err()
	}, Options{})
	<-started
	queued, _ := s.Submit(func(ctx context.Context) (any, error) { return nil, nil }, Options{})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want DeadlineExceeded", err)
	}
	if snap, _ := s.Get(queued); snap.State != Canceled {
		t.Fatalf("queued straggler state %v, want Canceled", snap.State)
	}
}

func TestConcurrentSubmitWaitCancel(t *testing.T) {
	s := newTest(t, Config{Workers: 4, QueueDepth: 128})
	var wg sync.WaitGroup
	var done, canceled atomic.Int64
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, err := s.Submit(func(ctx context.Context) (any, error) {
				select {
				case <-time.After(time.Duration(i%5) * time.Millisecond):
					return i, nil
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}, Options{})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if i%7 == 0 {
				s.Cancel(id)
			}
			snap, err := s.Wait(context.Background(), id)
			if err != nil {
				t.Errorf("wait: %v", err)
				return
			}
			switch snap.State {
			case Done:
				done.Add(1)
			case Canceled:
				canceled.Add(1)
			default:
				t.Errorf("job %s finished %v", id, snap.State)
			}
		}(i)
	}
	wg.Wait()
	if done.Load()+canceled.Load() != 64 {
		t.Fatalf("done=%d canceled=%d, want 64 total", done.Load(), canceled.Load())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTerminalJobReleasesClosure submits jobs whose closures each capture a
// large buffer. Once they are terminal the scheduler must not keep the
// buffers alive until the result TTL, while Get still serves each result.
func TestTerminalJobReleasesClosure(t *testing.T) {
	const n, size = 8, 4 << 20
	s := newTest(t, Config{Workers: 2, QueueDepth: n})
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	ids := make([]string, n)
	for i := range ids {
		buf := make([]byte, size)
		buf[size-1] = byte(i)
		id, err := s.Submit(func(ctx context.Context) (any, error) { return int(buf[size-1]), nil }, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	if after := heap(); after > base+n*size/4 {
		t.Fatalf("heap %d MB → %d MB over %d terminal jobs: their closures are still reachable", base>>20, after>>20, n)
	}
	for i, id := range ids {
		snap, err := s.Get(id)
		if err != nil || snap.State != Done || snap.Result != i {
			t.Fatalf("job %d: %v result=%v err=%v, want done/%d", i, snap.State, snap.Result, err, i)
		}
	}
}
