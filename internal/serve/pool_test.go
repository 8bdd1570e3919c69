package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// gatedPool returns a 1-shard/1-worker pool whose single worker is
// parked inside a job until release is closed. started closes once the
// worker has actually dequeued the gate job, so the queue is known-empty
// at that point.
func gatedPool(t *testing.T, depth int) (p *Pool, started, release chan struct{}) {
	t.Helper()
	p = NewPool(1, 1, depth)
	started = make(chan struct{})
	release = make(chan struct{})
	if _, err := p.submit("gate", func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatalf("gate submit: %v", err)
	}
	<-started
	return p, started, release
}

// TestPoolBackpressure: with the worker busy and a depth-1 queue, the
// second queued submission is rejected with ErrQueueFull, and the
// rejection is counted.
func TestPoolBackpressure(t *testing.T) {
	p, _, release := gatedPool(t, 1)
	defer func() { close(release); p.Drain() }()

	if _, err := p.submit("a", func() {}); err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	if _, err := p.submit("a", func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submit error = %v, want ErrQueueFull", err)
	}
	if _, rej, _, _ := p.Counters(); rej != 1 {
		t.Errorf("rejected counter = %d, want 1", rej)
	}
}

// TestPoolTenantFairness: tenant B's single job must not wait behind
// tenant A's backlog — round-robin serves it immediately after A's
// first queued job.
func TestPoolTenantFairness(t *testing.T) {
	p, _, release := gatedPool(t, 32)

	var (
		mu    sync.Mutex
		order []string
	)
	record := func(tag string) func() {
		return func() {
			mu.Lock()
			order = append(order, tag)
			mu.Unlock()
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := p.submit("a", record(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatalf("submit a%d: %v", i, err)
		}
	}
	if _, err := p.submit("b", record("b0")); err != nil {
		t.Fatalf("submit b0: %v", err)
	}
	close(release)
	p.Drain()

	if len(order) != 9 {
		t.Fatalf("completed %d jobs, want 9: %v", len(order), order)
	}
	// Ring order is [a b]: a0 runs first, then b0 — not after a's backlog.
	if order[1] != "b0" {
		t.Errorf("tenant b's job ran at position %v, want order[1]; full order %v", order, order)
	}
}

// TestPoolDrainCompletesAccepted: every job accepted before Drain —
// queued or in flight — completes, and post-drain submissions fail with
// ErrDraining.
func TestPoolDrainCompletesAccepted(t *testing.T) {
	p, _, release := gatedPool(t, 64)

	const queued = 20
	ran := make(chan int, queued)
	for i := 0; i < queued; i++ {
		i := i
		if _, err := p.submit(fmt.Sprintf("t%d", i%3), func() { ran <- i }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	close(release)
	p.Drain()

	if got := len(ran); got != queued {
		t.Errorf("%d of %d accepted jobs ran across drain", got, queued)
	}
	sub, _, comp, inf := p.Counters()
	if sub != queued+1 || comp != queued+1 || inf != 0 {
		t.Errorf("counters after drain: submitted=%d completed=%d inflight=%d, want %d/%d/0",
			sub, comp, inf, queued+1, queued+1)
	}
	if _, err := p.submit("late", func() {}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error = %v, want ErrDraining", err)
	}
}

// TestPoolShardIsolation: tenants hash to distinct shards, so one
// tenant's full queue does not reject another shard's tenant.
func TestPoolShardIsolation(t *testing.T) {
	p := NewPool(8, 1, 1)
	started := make(chan struct{})
	release := make(chan struct{})
	// Park the noisy tenant's shard worker, then fill that shard's
	// depth-1 queue.
	if _, err := p.submit("noisy", func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatalf("park submit: %v", err)
	}
	<-started
	if _, err := p.submit("noisy", func() {}); err != nil {
		t.Fatalf("queueing submit: %v", err)
	}
	if _, err := p.submit("noisy", func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("noisy shard should be full, got err = %v", err)
	}
	// A tenant hashing to a different shard is unaffected.
	other := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("quiet%d", i)
		if p.shardFor(cand) != p.shardFor("noisy") {
			other = cand
			break
		}
	}
	if _, err := p.submit(other, func() {}); err != nil {
		t.Errorf("tenant %q rejected although its shard differs from the full one: %v", other, err)
	}
	close(release)
	p.Drain()
}

// TestPoolContainsPanic: a panicking job fails alone. Its done channel
// closes, the next job on the same single-worker shard still runs, the
// panic is counted once, Do reports it as a *PanicError, and after Drain
// no worker goroutine is left behind.
func TestPoolContainsPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	p := NewPool(1, 1, 4)
	bad, err := p.submit("a", func() { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	ran := make(chan struct{})
	good, err := p.submit("a", func() { close(ran) })
	if err != nil {
		t.Fatal(err)
	}
	<-bad.done
	<-good.done
	select {
	case <-ran:
	default:
		t.Fatal("the job after the panicking one did not run")
	}
	if bad.err == nil || bad.err.Value != "boom" || good.err != nil {
		t.Errorf("job errors = %v and %v, want the first job's panic and nil", bad.err, good.err)
	}
	if n := p.panicked.Load(); n != 1 {
		t.Errorf("panicked counter = %d, want 1", n)
	}
	if _, _, comp, inf := p.Counters(); comp != 1 || inf != 0 {
		t.Errorf("completed=%d inflight=%d, want 1 and 0", comp, inf)
	}
	if ok, detail := p.Healthy(); !ok {
		t.Errorf("pool unhealthy after a contained panic: %s", detail)
	}

	err = p.Do("a", func() { panic("again") })
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "again" || len(pe.Stack) == 0 {
		t.Errorf("Do of a panicking job = %v, want a *PanicError carrying the value and a stack", err)
	}
	if err := p.Do("a", func() {}); err != nil {
		t.Errorf("Do after a panic = %v, want nil", err)
	}

	p.Drain()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline })
}
