package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool errors, mapped to HTTP statuses by the handlers (429 and 503).
var (
	// ErrQueueFull reports that the tenant's shard has no queue capacity
	// left; the client should back off and retry.
	ErrQueueFull = errors.New("serve: queue full")
	// ErrDraining reports that the pool has begun its graceful drain and
	// accepts no new work.
	ErrDraining = errors.New("serve: draining")
)

// PanicError is a job's recovered panic: the value it panicked with and
// the stack that raised it. Do returns it; the worker lives on.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("serve: job panicked: %v", e.Value) }

// Pool is a sharded, bounded worker pool with per-tenant fairness.
//
// Tenants hash onto shards, so one noisy tenant can fill at most its own
// shard's queue; within a shard each tenant has its own FIFO and workers
// pick the next job round-robin across tenants, so a tenant that queued
// 100 jobs cannot starve one that queued 1. Every queue is bounded by an
// explicit depth: a full shard rejects with ErrQueueFull and the HTTP
// layer translates that into 429 + Retry-After (backpressure, never
// unbounded buffering).
//
// A job that panics fails alone: its worker recovers the panic, counts
// it and keeps serving the shard.
//
// Drain is the graceful-shutdown half of the contract: after Drain, new
// submissions fail with ErrDraining, but every job already accepted —
// queued or in flight — runs to completion before Drain returns. The
// serve CI smoke test and the load-test harness both assert the "zero
// dropped accepted jobs" property this provides.
type Pool struct {
	shards  []*shard
	workers int // per shard
	wg      sync.WaitGroup

	draining  atomic.Bool
	submitted atomic.Int64
	rejected  atomic.Int64
	completed atomic.Int64
	panicked  atomic.Int64
	inflight  atomic.Int64
}

// job is one accepted unit of work; done closes after run returns or
// panics.
type job struct {
	run  func()
	done chan struct{}
	err  *PanicError // set before done closes
}

// shard is one independently locked queue group.
type shard struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*job // per-tenant FIFO
	ring     []string          // tenants with queued work, round-robin order
	rr       int               // next ring slot to serve
	queued   int
	depth    int
	draining bool
}

// NewPool starts shards×workersPerShard workers. queueDepth bounds each
// shard's total queued (not yet running) jobs.
func NewPool(shards, workersPerShard, queueDepth int) *Pool {
	if shards < 1 {
		shards = 1
	}
	if workersPerShard < 1 {
		workersPerShard = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	p := &Pool{workers: workersPerShard}
	for i := 0; i < shards; i++ {
		s := &shard{queues: map[string][]*job{}, depth: queueDepth}
		s.cond = sync.NewCond(&s.mu)
		p.shards = append(p.shards, s)
		for w := 0; w < workersPerShard; w++ {
			p.wg.Add(1)
			go p.worker(s)
		}
	}
	return p
}

// Workers returns the total worker count across shards.
func (p *Pool) Workers() int { return p.workers * len(p.shards) }

// Shards returns the shard count.
func (p *Pool) Shards() int { return len(p.shards) }

// ShardIndex returns the shard a tenant hashes onto — the request log's
// shard field, so a log line can be joined to per-shard behavior.
func (p *Pool) ShardIndex(tenant string) int {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return int(h.Sum32() % uint32(len(p.shards)))
}

// shardFor maps a tenant onto its shard.
func (p *Pool) shardFor(tenant string) *shard {
	return p.shards[p.ShardIndex(tenant)]
}

// Do enqueues run under the tenant's shard and blocks until it has
// finished. It fails fast with ErrDraining after Drain began or
// ErrQueueFull when the shard's queue is at depth, and returns a
// *PanicError when run panicked.
func (p *Pool) Do(tenant string, run func()) error {
	j, err := p.submit(tenant, run)
	if err != nil {
		return err
	}
	<-j.done
	if j.err != nil {
		return j.err
	}
	return nil
}

// submit enqueues run and returns its job, whose done channel closes when
// the job has finished.
func (p *Pool) submit(tenant string, run func()) (*job, error) {
	s := p.shardFor(tenant)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if s.queued >= s.depth {
		p.rejected.Add(1)
		return nil, ErrQueueFull
	}
	j := &job{run: run, done: make(chan struct{})}
	if _, ok := s.queues[tenant]; !ok {
		s.ring = append(s.ring, tenant)
	}
	s.queues[tenant] = append(s.queues[tenant], j)
	s.queued++
	p.submitted.Add(1)
	s.cond.Signal()
	return j, nil
}

// worker executes jobs from one shard until the shard is both draining
// and empty — accepted work always completes.
func (p *Pool) worker(s *shard) {
	defer p.wg.Done()
	for {
		s.mu.Lock()
		for s.queued == 0 && !s.draining {
			s.cond.Wait()
		}
		if s.queued == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pop()
		s.mu.Unlock()

		p.inflight.Add(1)
		j.err = runJob(j.run)
		p.inflight.Add(-1)
		if j.err != nil {
			p.panicked.Add(1)
		} else {
			p.completed.Add(1)
		}
		close(j.done)
	}
}

// runJob runs one job, recovering a panic into a *PanicError so that it
// fails only its own job.
func runJob(run func()) (perr *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			perr = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	run()
	return nil
}

// pop removes the next job, round-robin across tenants. Caller holds mu
// and guarantees queued > 0.
func (s *shard) pop() *job {
	if s.rr >= len(s.ring) {
		s.rr = 0
	}
	tenant := s.ring[s.rr]
	q := s.queues[tenant]
	j := q[0]
	q[0] = nil // release the job reference held by the backing array
	if len(q) == 1 {
		delete(s.queues, tenant)
		s.ring = append(s.ring[:s.rr], s.ring[s.rr+1:]...)
		// rr now indexes the tenant after the removed one.
	} else {
		s.queues[tenant] = q[1:]
		s.rr++
	}
	s.queued--
	return j
}

// Drain stops intake and blocks until every accepted job (queued and in
// flight) has completed and all workers have exited. Idempotent; later
// calls return once the first drain finishes.
func (p *Pool) Drain() {
	p.draining.Store(true)
	for _, s := range p.shards {
		s.mu.Lock()
		s.draining = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	p.wg.Wait()
}

// Draining reports whether Drain has begun.
func (p *Pool) Draining() bool { return p.draining.Load() }

// Queued returns the total queued (not yet running) job count.
func (p *Pool) Queued() int {
	total := 0
	for _, s := range p.shards {
		s.mu.Lock()
		total += s.queued
		s.mu.Unlock()
	}
	return total
}

// Counters returns (submitted, rejected, completed, inflight).
func (p *Pool) Counters() (submitted, rejected, completed, inflight int64) {
	return p.submitted.Load(), p.rejected.Load(), p.completed.Load(), p.inflight.Load()
}

// Name implements Component.
func (p *Pool) Name() string { return "pool" }

// Healthy implements Component: the pool is healthy until it drains.
func (p *Pool) Healthy() (bool, string) {
	if p.Draining() {
		return false, "draining"
	}
	return true, "ok"
}

// Status implements Component.
func (p *Pool) Status() any {
	sub, rej, comp, inf := p.Counters()
	return map[string]any{
		"shards":      p.Shards(),
		"workers":     p.Workers(),
		"queue_depth": p.shards[0].depth,
		"queued":      p.Queued(),
		"inflight":    inf,
		"submitted":   sub,
		"rejected":    rej,
		"completed":   comp,
		"panicked":    p.panicked.Load(),
		"draining":    p.Draining(),
	}
}

// WritePrometheus implements obs.MetricsWriter.
func (p *Pool) WritePrometheus(w io.Writer) error {
	sub, rej, comp, inf := p.Counters()
	var b []byte
	gauge := func(name, help string, v int64) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("scord_serve_shards", "worker-pool shard count", int64(p.Shards()))
	gauge("scord_serve_workers", "total replay workers", int64(p.Workers()))
	gauge("scord_serve_queue_depth", "per-shard queue capacity", int64(p.shards[0].depth))
	gauge("scord_serve_queued", "jobs queued across shards", int64(p.Queued()))
	gauge("scord_serve_inflight", "jobs executing now", inf)
	draining := int64(0)
	if p.Draining() {
		draining = 1
	}
	gauge("scord_serve_draining", "1 while the graceful drain is in progress", draining)
	counter("scord_serve_jobs_submitted_total", "jobs accepted into a queue", sub)
	counter("scord_serve_jobs_rejected_total", "jobs rejected with queue-full backpressure", rej)
	counter("scord_serve_jobs_completed_total", "jobs run to completion", comp)
	counter("scord_serve_jobs_panicked_total", "jobs that panicked and failed alone; the worker recovered", p.panicked.Load())
	_, err := w.Write(b)
	return err
}
