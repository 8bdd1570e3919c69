package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The 253 distinct device simulations behind the paper's tables and
// figures (460 requested; see plan.go) are embarrassingly parallel: every
// (benchmark × configuration × injections) run builds its own gpu.Device
// and draws from instance-local RNGs, so nothing is shared between jobs.
// The run plan and the suites therefore hand their simulations over as a
// flat []Sim, a bounded worker pool executes them, and every job writes
// its result into an order-indexed slot — the assembly pass then reads
// the slots in submission order, making rendered tables and CSVs
// byte-identical to a sequential run regardless of worker interleaving.
// Each simulation engine itself stays single-threaded; parallelism exists
// only across device instances.

// Sim is one independent device simulation job.
type Sim struct {
	// Label identifies the job in error messages and the run report,
	// e.g. "fig8/MM/scord".
	Label string
	// Run builds the device (and its own benchmark instance), executes the
	// simulation, and stores the result into the slot its caller
	// reserved for this job. It must not touch state shared with other
	// jobs.
	Run func() error
}

// JobTiming is the wall-clock record of one executed job.
type JobTiming struct {
	Label string
	Wall  time.Duration
}

// Report accumulates scheduling telemetry for one experiment run: per-job
// wall-clock and the aggregate utilization of the worker pool. A single
// Report may be shared across experiments (scord-eval resets one per
// experiment); it is safe for concurrent use.
type Report struct {
	mu      sync.Mutex
	workers int
	jobs    []JobTiming
	wall    time.Duration // batch wall-clock, summed over batches
	busy    time.Duration // per-job wall-clock summed (serial-equivalent time)
}

func (r *Report) add(workers int, batchWall time.Duration, timings []JobTiming) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if workers > r.workers {
		r.workers = workers
	}
	r.jobs = append(r.jobs, timings...)
	r.wall += batchWall
	for _, jt := range timings {
		r.busy += jt.Wall
	}
}

// Jobs returns the per-job timings in submission order.
func (r *Report) Jobs() []JobTiming {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobTiming, len(r.jobs))
	copy(out, r.jobs)
	return out
}

// Workers returns the largest worker-pool size used.
func (r *Report) Workers() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers
}

// Wall returns the wall-clock time spent draining job batches.
func (r *Report) Wall() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wall
}

// Busy returns the summed per-job wall-clock — the serial-equivalent time.
func (r *Report) Busy() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// Speedup returns the parallel speedup over a sequential run of the same
// jobs (serial-equivalent time over wall-clock).
func (r *Report) Speedup() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wall <= 0 {
		return 1
	}
	return float64(r.busy) / float64(r.wall)
}

// Utilization returns the fraction of worker capacity that executed
// simulation work: busy / (wall × workers).
func (r *Report) Utilization() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wall <= 0 || r.workers <= 0 {
		return 0
	}
	return float64(r.busy) / (float64(r.wall) * float64(r.workers))
}

// jobs resolves the worker count: Options.Jobs if positive, else
// GOMAXPROCS.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// ErrCanceled is returned (wrapped) by experiment runs whose Options.
// Cancel channel closed before every job was dispatched. Jobs already
// running drain to completion first — the runner never abandons a
// simulation mid-flight.
var ErrCanceled = errors.New("harness: run canceled")

// canceled reports whether the options' cancel channel has closed.
func (o Options) canceled() bool {
	select {
	case <-o.Cancel:
		return true
	default:
		return false
	}
}

// runAll drains sims on a bounded worker pool and blocks until every job
// has finished. Jobs are handed out in submission order; results land in
// the order-indexed slots the sims close over. A job that panics fails
// alone: its panic becomes its error and the other jobs still run. The
// first error in submission order — deterministic, unlike first-in-time
// — is returned wrapped with its job label; later errors are dropped. A
// closed Options.Cancel stops dispatch (ErrCanceled) but lets started
// jobs finish.
func runAll(opt Options, sims []Sim) error {
	workers := opt.jobs()
	if workers > len(sims) {
		workers = len(sims)
	}
	if workers < 1 {
		workers = 1
	}

	if opt.Telemetry != nil {
		opt.Telemetry.SetWorkers(workers)
		for _, s := range sims {
			opt.Telemetry.JobQueued(s.Label)
		}
	}

	errs := make([]error, len(sims))
	timings := make([]JobTiming, len(sims))
	start := time.Now() //scord:allow(detlint/walltime) scheduling telemetry only; never feeds simulation results
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if opt.canceled() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(sims) {
					return
				}
				if opt.Telemetry != nil {
					opt.Telemetry.JobStarted(sims[i].Label)
				}
				t0 := time.Now() //scord:allow(detlint/walltime) scheduling telemetry only; never feeds simulation results
				errs[i] = runJob(sims[i])
				//scord:allow(detlint/walltime) scheduling telemetry only; never feeds simulation results
				timings[i] = JobTiming{Label: sims[i].Label, Wall: time.Since(t0)}
				if opt.Telemetry != nil {
					opt.Telemetry.JobDone(sims[i].Label)
				}
			}
		}()
	}
	wg.Wait()

	if opt.Report != nil {
		//scord:allow(detlint/walltime) scheduling telemetry only; never feeds simulation results
		opt.Report.add(workers, time.Since(start), timings)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s: %w", sims[i].Label, err)
		}
	}
	if dispatched := int(next.Load()); opt.canceled() && dispatched < len(sims) {
		return fmt.Errorf("%d of %d jobs not dispatched: %w",
			len(sims)-dispatched, len(sims), ErrCanceled)
	}
	return nil
}

// runJob runs one job, turning a panic (a kernel's re-raised
// *gpu.WarpPanic included) into the job's error.
func runJob(s Sim) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("panic: %w", e)
			} else {
				err = fmt.Errorf("panic: %v", r)
			}
		}
	}()
	return s.Run()
}

// geomean returns the geometric mean of xs, accumulating in the log
// domain: a raw product of ~1.x ratios overflows or underflows float64
// range once the app list grows, while the log sum stays tiny. The empty
// product's mean is 1.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
