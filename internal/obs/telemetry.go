package obs

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Job lifecycle states, in order.
const (
	JobQueued int32 = iota
	JobRunning
	JobDone
)

var jobStateNames = [...]string{"queued", "running", "done"}

// JobProgress is the live view of one harness job. It is a gpu.Probe:
// the simulation writes Cycles through Tick and the telemetry server
// reads it; both sides touch only this atomic, so the simulation result
// cannot depend on whether anyone is watching.
type JobProgress struct {
	Cycles atomic.Uint64
	state  atomic.Int32
}

// Tick implements gpu.Probe: it publishes the current simulated cycle.
func (j *JobProgress) Tick(now uint64) { j.Cycles.Store(now) }

// State returns the job's lifecycle state (JobQueued/JobRunning/JobDone).
func (j *JobProgress) State() int32 { return j.state.Load() }

// RunTelemetry aggregates live progress of one harness run: job counts,
// per-job simulated-cycle gauges, and worker utilization. It is safe for
// concurrent use by harness workers and the HTTP server. It holds no
// clocks of either domain: simulated cycles flow in through gauges, and
// wall-clock scheduling stays in the harness where it is annotated.
type RunTelemetry struct {
	workers     atomic.Int64
	jobsTotal   atomic.Int64
	jobsRunning atomic.Int64
	jobsDone    atomic.Int64

	mu   sync.Mutex
	jobs map[string]*JobProgress
}

// NewRunTelemetry returns an empty telemetry hub.
func NewRunTelemetry() *RunTelemetry {
	return &RunTelemetry{jobs: map[string]*JobProgress{}}
}

// SetWorkers records the size of the harness worker pool.
func (t *RunTelemetry) SetWorkers(n int) { t.workers.Store(int64(n)) }

// Workers returns the recorded worker-pool size.
func (t *RunTelemetry) Workers() int { return int(t.workers.Load()) }

// JobQueued registers a job and returns its progress record. Calling it
// twice with the same label returns the existing record without
// re-counting the job.
func (t *RunTelemetry) JobQueued(label string) *JobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	if j, ok := t.jobs[label]; ok {
		return j
	}
	j := &JobProgress{}
	t.jobs[label] = j
	t.jobsTotal.Add(1)
	return j
}

// JobStarted moves a job into the running state.
func (t *RunTelemetry) JobStarted(label string) {
	if j := t.lookup(label); j != nil && j.state.CompareAndSwap(JobQueued, JobRunning) {
		t.jobsRunning.Add(1)
	}
}

// JobDone moves a job into the done state.
func (t *RunTelemetry) JobDone(label string) {
	if j := t.lookup(label); j != nil && j.state.CompareAndSwap(JobRunning, JobDone) {
		t.jobsRunning.Add(-1)
		t.jobsDone.Add(1)
	}
}

func (t *RunTelemetry) lookup(label string) *JobProgress {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[label]
}

// Counts returns (total, running, done) job counts.
func (t *RunTelemetry) Counts() (total, running, done int64) {
	return t.jobsTotal.Load(), t.jobsRunning.Load(), t.jobsDone.Load()
}

// JobSnapshot is the exported state of one job at snapshot time.
type JobSnapshot struct {
	Label     string `json:"label"`
	State     string `json:"state"`
	SimCycles uint64 `json:"sim_cycles"`
}

// Snapshot is the exported state of the whole run at snapshot time, with
// jobs sorted by label so serialized forms are stable.
type Snapshot struct {
	Workers     int64         `json:"workers"`
	JobsTotal   int64         `json:"jobs_total"`
	JobsRunning int64         `json:"jobs_running"`
	JobsDone    int64         `json:"jobs_done"`
	Jobs        []JobSnapshot `json:"jobs"`
}

// Snap captures the current state. Jobs are sorted by label.
func (t *RunTelemetry) Snap() Snapshot {
	snap := Snapshot{
		Workers:     t.workers.Load(),
		JobsTotal:   t.jobsTotal.Load(),
		JobsRunning: t.jobsRunning.Load(),
		JobsDone:    t.jobsDone.Load(),
	}
	t.mu.Lock()
	labels := make([]string, 0, len(t.jobs))
	for l := range t.jobs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		j := t.jobs[l]
		snap.Jobs = append(snap.Jobs, JobSnapshot{
			Label:     l,
			State:     jobStateNames[j.State()],
			SimCycles: j.Cycles.Load(),
		})
	}
	t.mu.Unlock()
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format. Series are sorted, so consecutive scrapes of an idle run are
// byte-identical.
func (t *RunTelemetry) WritePrometheus(w io.Writer) error {
	snap := t.Snap()
	var b strings.Builder
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("scord_workers", "size of the harness worker pool", snap.Workers)
	gauge("scord_jobs_total", "jobs submitted to the harness runner", snap.JobsTotal)
	gauge("scord_jobs_running", "jobs currently executing", snap.JobsRunning)
	gauge("scord_jobs_done", "jobs completed", snap.JobsDone)
	if snap.Workers > 0 {
		fmt.Fprintf(&b, "# HELP scord_worker_utilization running jobs / workers\n"+
			"# TYPE scord_worker_utilization gauge\nscord_worker_utilization %g\n",
			float64(snap.JobsRunning)/float64(snap.Workers))
	}
	if len(snap.Jobs) > 0 {
		fmt.Fprintf(&b, "# HELP scord_job_sim_cycles simulated cycle reached by each job\n# TYPE scord_job_sim_cycles gauge\n")
		for _, j := range snap.Jobs {
			fmt.Fprintf(&b, "scord_job_sim_cycles{job=%q} %d\n", promLabel(j.Label), j.SimCycles)
		}
		fmt.Fprintf(&b, "# HELP scord_job_state job lifecycle: 0 queued, 1 running, 2 done\n# TYPE scord_job_state gauge\n")
		for _, j := range snap.Jobs {
			fmt.Fprintf(&b, "scord_job_state{job=%q} %d\n", promLabel(j.Label), stateIndex(j.State))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func stateIndex(name string) int {
	for i, n := range jobStateNames {
		if n == name {
			return i
		}
	}
	return -1
}

// promLabel escapes a label value for the text exposition format (the %q
// verb already escapes quotes and backslashes; newlines never occur in
// job labels but are stripped defensively).
func promLabel(s string) string {
	return strings.ReplaceAll(s, "\n", " ")
}

// expvar integration. expvar.Publish panics on duplicate names and offers
// no unpublish, so the package registers a single indirection that always
// reads the most recently published hub — tests (and repeated harness
// invocations in one process) can re-publish freely.
var (
	expvarOnce    sync.Once
	expvarCurrent atomic.Pointer[RunTelemetry]
)

// PublishExpvar exposes this hub as the expvar variable "scord"
// (visible at /debug/vars). Later calls, from any hub, atomically take
// over the name.
func (t *RunTelemetry) PublishExpvar() {
	expvarCurrent.Store(t)
	expvarOnce.Do(func() {
		expvar.Publish("scord", expvar.Func(func() any {
			if cur := expvarCurrent.Load(); cur != nil {
				return cur.Snap()
			}
			return nil
		}))
	})
}
