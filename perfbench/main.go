// Command perfbench is the repository benchmark. It runs one workload
// against the scord packages, reaching them only through their exported
// APIs, checks every output, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload sim --seed 1 --seconds 30 --trace 0
//
// The workloads are sim (the Figure 8 job list), trace (offline replay,
// prediction and exploration of recorded traces) and serve (HTTP replays
// against an in-process scord-serve). README.md in this directory states
// why each was chosen and which per-layer metric should move which
// end-to-end metric.
//
// Every workload reports the same metrics. With --trace 0 the result
// carries the end-to-end metrics: set-up time, peak memory, throughput
// and operation latency, each defined per workload in README.md. With
// --trace 1 it carries every per-layer metric of one traced run, 0 for a
// layer the workload does not call, and the span files (scord-spans/1
// JSON and Perfetto) go to --out. The exit status is non-zero when any
// output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// params is one benchmark invocation.
type params struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// smoke shrinks the workload to its minimal size: one pass over a
	// reduced input set. The self-test uses it.
	smoke bool
	// tamper, when non-nil, corrupts one expectation before the timed
	// work; the self-test uses it to prove that a wrong expectation fails
	// the run.
	tamper func(*expect)
}

// expect holds the references outputs are checked against.
type expect struct {
	// fig8 maps an app to its seed-1 Figure 8 bars (base, ScoRD), and
	// fig8Geo holds the seed-1 geomeans (base, ScoRD), as EXPERIMENTS.md
	// records them. Checked only at seed 1.
	fig8    map[string][2]float64
	fig8Geo [2]float64
	// serveBodies maps an uploaded trace ID to its offline text rendering.
	serveBodies map[string][]byte
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params, *tally) (map[string]metric, error){
	"sim":   runSim,
	"trace": runTraceWorkload,
	"serve": runServe,
}

func main() {
	var p params
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&p.workload, "workload", "", "workload to run: sim, trace or serve")
	fs.Int64Var(&p.seed, "seed", 1, "workload seed (1 is the default, 7 is held out for validating claims)")
	fs.Float64Var(&p.seconds, "seconds", 30, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.StringVar(&p.outDir, "out", filepath.Join(".bench_build", "out"), "directory for span files and profiles")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.NArg() != 0 || (*traceFlag != 0 && *traceFlag != 1) || p.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload sim|trace|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	p.trace = *traceFlag == 1
	res, err := run(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(exitCode(res))
}

// exitCode is the process status for a result: non-zero when any output
// check failed.
func exitCode(res *result) int {
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// run executes one workload and assembles its result line.
func run(p params) (*result, error) {
	wl, ok := workloads[p.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (choose sim, trace or serve)", p.workload)
	}
	var t tally
	ms, err := wl(p, &t)
	if err != nil {
		return nil, err
	}
	if p.trace {
		for name, unit := range perLayerUnits() {
			if _, ok := ms[name]; !ok {
				ms[name] = metric{0, unit}
			}
		}
	} else {
		ms["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.fail(fmt.Errorf("metric %s is not a number", name))
			delete(ms, name)
		}
	}
	return &result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms,
	}, nil
}

// endToEnd assembles a workload's end-to-end metrics other than
// peak_rss_mb: the median set-up time, the workload's throughput in its
// own operations per host CPU second, and the median and nearest-rank
// 90th percentile of the latencies, in milliseconds, of the requests a
// user waits for.
func endToEnd(setupS, throughput float64, latencyMS []float64) map[string]metric {
	fmt.Fprintf(os.Stderr, "perfbench: %d latency samples\n", len(latencyMS))
	return map[string]metric{
		"setup_s":        {setupS, "s"},
		"throughput":     {throughput, "ops/cpu-s"},
		"latency_p50_ms": {percentile(latencyMS, 0.5), "ms"},
		"latency_p90_ms": {percentile(latencyMS, 0.9), "ms"},
	}
}

// perLayerUnits maps every per-layer metric to its unit; BENCHMARK.json
// lists the same names. <t> in a name is each replay model.
func perLayerUnits() map[string]string {
	m := map[string]string{"tracing.overhead": "ratio"}
	add := func(unit string, names ...string) {
		for _, n := range names {
			m[n] = unit
		}
	}
	for _, c := range []string{"sync", "stream"} {
		add("count", "gpu.requests."+c, "gpu.allocs_per_request."+c)
		add("s", "gpu.busy_s."+c)
		add("ns", "gpu.ns_per_request."+c, "gpu.ns_per_request_alone."+c)
		add("ratio", "gpu.detector_share."+c)
	}
	add("ns", "gpu.ns_per_lane.stream", "replay.dispatch_ns_per_op", "predict.ns_per_op")
	add("ms", "gpu.new_ms", "predict.witness_ms", "explore.ms_per_class", "explore.confirm_ms",
		"serve.admission_ms", "serve.queue_wait_ms", "serve.replay_ms", "serve.render_ms",
		"serve.http_ms", "serve.gen_lag_ms", "serve.upload_ms")
	add("cycles", "gpu.cycles", "core.stall_cycles")
	add("count", "gpu.instructions", "cache.l2_data_accesses", "cache.l2_meta_accesses",
		"noc.flits", "noc.extra_flits", "dram.data_accesses", "dram.meta_accesses",
		"core.checks", "core.meta_evicts", "tracefile.decode_allocs_per_op",
		"predict.allocs_per_op", "predict.predictions", "explore.classes", "explore.pruned",
		"explore.bounded_out", "serve.rejected")
	add("ratio", "gpu.fig8_slowdown", "cache.l1_hit_ratio", "cache.l2_miss_ratio",
		"core.prelim_ok_ratio", "explore.prune_ratio")
	for _, ph := range []string{"issue", "fence", "barrier", "l1", "noc", "l2", "dram", "det_meta", "det_stall"} {
		add("cycles", "phase."+ph)
	}
	add("MB/s", "tracefile.decode_mb_per_s", "tracefile.encode_mb_per_s")
	for _, t := range []string{"scord", "ldetector", "haccrg", "barracuda", "curd"} {
		add("ms", "replay.construct_ms."+t, "replay.kernel_start_ms."+t)
		add("ns", "replay.ns_per_access."+t)
	}
	add("MB", "serve.alloc_mb_per_request")
	return m
}

// tally counts attempted and failed operations. A failure is logged to
// standard error with its reason.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

// op records one attempted operation and its outcome.
func (t *tally) op(err error) {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
	if err != nil {
		t.fail(err)
	}
}

// fail records a failed check on an operation already counted.
func (t *tally) fail(err error) {
	t.mu.Lock()
	t.failed++
	t.mu.Unlock()
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
}

// nproc bounds every worker pool and client connection count.
func nproc() int { return runtime.NumCPU() }

// A workload sets up at least minSetups times, and more, up to
// maxSetups, until its set-ups have used setupBudget host CPU seconds;
// setup_s is the median. A set-up of a tenth of a second is easily
// doubled by one garbage collection, so a cheap one is repeated more.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 2.0
)

// timeSetup runs setup as often as the constants above say and returns
// the first outcome and the median host CPU seconds one set-up took.
// Each later outcome is handed to again with the first, to compare or
// release.
func timeSetup[T any](setup func() (T, error), again func(first, later T)) (T, float64, error) {
	var (
		first T
		durs  []float64
		total float64
	)
	for i := 0; i < maxSetups && (i < minSetups || total < setupBudget); i++ {
		c0 := cpuTime()
		v, err := setup()
		durs = append(durs, (cpuTime() - c0).Seconds())
		total += durs[i]
		if err != nil {
			return first, 0, err
		}
		if i == 0 {
			first = v
		} else if again != nil {
			again(first, v)
		}
	}
	return first, median(durs), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs: with n samples
// the value at rank ceil(q*n), so at least n-ceil(q*n) samples lie
// beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// cpuTime returns the CPU time of every thread of the process. The
// benchmark measures work in host CPU seconds rather than wall seconds:
// the kernel does not charge a thread for time the host hypervisor
// stole from its virtual CPU, and on a shared host steal is a large,
// fluctuating share of wall time that would swamp any code change.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the host CPU time counters of /proc/stat, in clock ticks.
type cpuStat struct{ busy, steal float64 }

// readCPUStat reads the all-CPU line of /proc/stat. Busy time counts
// user, nice, system, irq, softirq and steal; idle and iowait are left
// out.
func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var v [8]float64
	for i := range v {
		v[i], _ = strconv.ParseFloat(f[i+1], 64)
	}
	return cpuStat{busy: v[0] + v[1] + v[2] + v[5] + v[6] + v[7], steal: v[7]}
}

// unstolenShare is the share of the host's busy CPU time over [a, b]
// that its hypervisor did not steal, busy counting steal. On a shared
// host the hypervisor takes a fluctuating share of this VM's CPU time,
// and everything runs that much slower; scaling a wall-clock latency by
// the share removes it. /proc/stat counts in 10 ms ticks, so [a, b] must
// span many of them: a pass or a phase, not a single short operation.
func unstolenShare(a, b cpuStat) float64 {
	busy := b.busy - a.busy
	if busy <= 0 {
		return 1
	}
	return 1 - (b.steal-a.steal)/busy
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// mallocs returns the process's cumulative heap allocation count and
// bytes. It stops the world briefly, so it is read only in traced runs.
func mallocs() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// deadline reports whether a run that started at start has used its
// measured seconds.
func deadline(start time.Time, seconds float64) bool {
	return time.Since(start).Seconds() >= seconds
}

// writeFile creates path under the output directory and fills it.
func writeFile(dir, name string, fill func(io.Writer) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", name, err)
	}
	return f.Close()
}
