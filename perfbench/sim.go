package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/obs/tracing"
	"scord/internal/scor"
	"scord/internal/stats"
)

// The sim workload runs Figure 8's job list as `scord-eval -only fig8`
// does: every clean ScoR app at the Table V ×1 inputs under detection
// off, base and scord, each job on a fresh device, handed to nproc
// workers in submission order. It is the only workload that runs the
// event engine, the warp coroutines, the cache/NOC/DRAM models and
// online detection.

// fig8Modes are Figure 8's detector modes, in job order per app.
var fig8Modes = []config.DetectorMode{config.ModeOff, config.ModeFull4B, config.ModeCached}

// syncApps issue 1–9 lanes per memory op, so their host cost is
// dominated by per-request warp scheduling; together they supply ~95% of
// the list's warp requests. The other apps issue 23–205 lanes per op and
// are bound by the lane path.
var syncApps = map[string]bool{"GCOL": true, "GCON": true, "UTS": true}

// smokeApps is the sim job list at minimal size: one app of each class.
var smokeApps = map[string]bool{"MM": true, "GCON": true}

// fig8Seed1 is Figure 8 at seed 1 as EXPERIMENTS.md records it: base
// and ScoRD cycles normalized to no detection, to three decimals, and
// their geomeans over the seven apps to four.
func fig8Seed1() ([2]float64, map[string][2]float64) {
	return [2]float64{1.5904, 1.2744}, map[string][2]float64{
		"MM": {1.244, 1.244}, "RED": {4.191, 1.678}, "R110": {1.262, 1.067},
		"GCOL": {1.099, 1.102}, "GCON": {1.246, 1.254}, "1DC": {2.664, 1.734},
		"UTS": {1.073, 1.024},
	}
}

// simJob is one device simulation of the list.
type simJob struct {
	app  int
	name string
	mode config.DetectorMode
}

func (j simJob) class() string {
	if syncApps[j.name] {
		return "sync"
	}
	return "stream"
}

func (j simJob) label() string { return fmt.Sprintf("%s/%v", j.name, j.mode) }

// simJobs builds the job list in harness.RunFig8's order.
func simJobs(smoke bool) []simJob {
	var jobs []simJob
	for ai, b := range scor.Apps() {
		if smoke && !smokeApps[b.Name()] {
			continue
		}
		for _, m := range fig8Modes {
			jobs = append(jobs, simJob{app: ai, name: b.Name(), mode: m})
		}
	}
	return jobs
}

// jobOut is what one job reports.
type jobOut struct {
	st       stats.Stats
	ph       gpu.PhaseAccounts
	requests uint64 // serviced warp requests (counted runs only)
	allocs   uint64 // heap allocations (counted runs only)
	wall     time.Duration
}

// tickCounter is a gpu.Probe counting its ticks: one per serviced warp
// request plus one at the end of each launch.
type tickCounter struct{ n uint64 }

func (c *tickCounter) Tick(uint64) { c.n++ }

// runJob simulates one job and checks it: the app's own functional
// verification must pass and a clean app must report no races. With
// count set it counts warp requests; with allocs, heap allocations.
func runJob(cfg config.Config, j simJob, tr *tracing.Tracer, count, allocs bool) (jobOut, error) {
	var out jobOut
	root := span(tr, nil, "job "+j.label())
	defer finish(root)
	var a0 uint64
	if allocs {
		a0, _ = mallocs()
	}
	t0 := time.Now()
	s := span(tr, root, "gpu.New/"+j.class())
	d, err := gpu.New(cfg.WithDetector(j.mode))
	finish(s)
	if err != nil {
		return out, fmt.Errorf("%s: %w", j.label(), err)
	}
	var ticks tickCounter
	if count {
		d.SetProbe(&ticks)
	}
	s = span(tr, root, "Benchmark.Run/"+j.class())
	err = scor.Apps()[j.app].Run(d, nil)
	finish(s)
	out.wall = time.Since(t0)
	if err != nil {
		return out, fmt.Errorf("%s: %w", j.label(), err)
	}
	if allocs {
		a1, _ := mallocs()
		out.allocs = a1 - a0
	}
	if count {
		out.requests = ticks.n - uint64(len(d.KernelLog()))
	}
	out.st, out.ph = *d.Stats(), d.Phases()
	if n := len(d.Races()); n != 0 {
		return out, fmt.Errorf("%s: clean app reported %d races", j.label(), n)
	}
	return out, nil
}

// simPass runs the job list on a pool of workers in submission order
// and returns each job's output, the pass's wall time and its host CPU
// time. Each worker
// records spans on its own tracer. Heap allocations are counted only
// with one worker, where process-wide counters split by job.
func simPass(cfg config.Config, jobs []simJob, workers int, log *spanLog, name string, count bool, t *tally) ([]jobOut, time.Duration, time.Duration) {
	outs := make([]jobOut, len(jobs))
	errs := make([]error, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0, c0 := time.Now(), cpuTime()
	for w := 0; w < workers; w++ {
		tr := log.tracer(fmt.Sprintf("%s-%d", name, w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outs[i], errs[i] = runJob(cfg, jobs[i], tr, count, count && workers == 1)
			}
		}()
	}
	wg.Wait()
	wall, cpu := time.Since(t0), cpuTime()-c0
	for _, err := range errs {
		t.op(err)
	}
	return outs, wall, cpu
}

// fig8 computes the list's Figure 8 geomeans (base, ScoRD) and, at seed
// 1, checks every bar and geomean against EXPERIMENTS.md.
func fig8(jobs []simJob, outs []jobOut, ex *expect, seed int64) ([2]float64, error) {
	var logs [2]float64
	apps := 0
	var bad error
	for i := 0; i+2 < len(jobs); i += len(fig8Modes) {
		off := float64(outs[i].st.Cycles)
		bars := [2]float64{float64(outs[i+1].st.Cycles) / off, float64(outs[i+2].st.Cycles) / off}
		logs[0] += math.Log(bars[0])
		logs[1] += math.Log(bars[1])
		apps++
		if want, ok := ex.fig8[jobs[i].name]; seed == 1 && (!ok || round(bars[0], 3) != want[0] || round(bars[1], 3) != want[1]) {
			bad = fmt.Errorf("figure 8 %s: bars %.3f/%.3f, EXPERIMENTS.md has %.3f/%.3f",
				jobs[i].name, bars[0], bars[1], want[0], want[1])
		}
	}
	geo := [2]float64{math.Exp(logs[0] / float64(apps)), math.Exp(logs[1] / float64(apps))}
	full := apps == len(scor.Apps())
	if seed == 1 && full && (round(geo[0], 4) != ex.fig8Geo[0] || round(geo[1], 4) != ex.fig8Geo[1]) {
		bad = fmt.Errorf("figure 8 geomeans %.4f/%.4f, EXPERIMENTS.md has %.4f/%.4f",
			geo[0], geo[1], ex.fig8Geo[0], ex.fig8Geo[1])
	}
	return geo, bad
}

func round(x float64, digits int) float64 {
	p := math.Pow10(digits)
	return math.Round(x*p) / p
}

// sameCycles checks that two passes simulated identical cycle counts:
// host-side observers and scheduling must never change the model.
func sameCycles(a, b []jobOut, jobs []simJob) error {
	for i := range a {
		if a[i].st != b[i].st || a[i].ph != b[i].ph {
			return fmt.Errorf("%s: simulated statistics differ between passes", jobs[i].label())
		}
	}
	return nil
}

// simWarmUp is the sim workload's set-up: MM under each of the three
// modes, one at a time, so lazy runtime set-up is done before timing.
func simWarmUp(cfg config.Config, t *tally) (struct{}, error) {
	for _, j := range simJobs(false)[:len(fig8Modes)] {
		_, err := runJob(cfg, j, nil, false, false)
		t.op(err)
	}
	return struct{}{}, nil
}

func runSim(p params, t *tally) (map[string]metric, error) {
	cfg := config.Default()
	cfg.Seed = p.seed
	jobs := simJobs(p.smoke)
	var ex expect
	ex.fig8Geo, ex.fig8 = fig8Seed1()
	if p.tamper != nil {
		p.tamper(&ex)
	}
	if p.trace {
		simWarmUp(cfg, t)
		return simTraced(p, cfg, jobs, &ex, t)
	}
	_, setupS, _ := timeSetup(func() (struct{}, error) { return simWarmUp(cfg, t) }, nil)

	start := time.Now()
	var (
		rates   []float64
		latency []float64
		first   []jobOut
		instr   uint64
	)
	for {
		s0 := readCPUStat()
		outs, wall, cpu := simPass(cfg, jobs, nproc(), nil, "", false, t)
		latency = append(latency, ms(wall)*unstolenShare(s0, readCPUStat()))
		_, err := fig8(jobs, outs, &ex, p.seed)
		if err == nil && first != nil {
			err = sameCycles(first, outs, jobs)
		}
		t.op(err)
		if first == nil {
			first = outs
		}
		instr = 0
		for _, o := range outs {
			instr += o.st.Instructions
		}
		rates = append(rates, float64(instr)/cpu.Seconds())
		// Start another pass only if it should end within the run, once
		// there are three.
		if p.smoke || (len(rates) >= 3 && time.Since(start)+wall > time.Duration(p.seconds*float64(time.Second))) {
			break
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: sim %d passes, %d instructions each, inst/cpu-s %.0f\n", len(rates), instr, rates)
	return endToEnd(setupS, median(rates), latency), nil
}

// simTraced is the sim workload's traced run: an untraced pass as the
// overhead baseline, a traced pass on nproc workers with spans and warp
// request counts, and a pass that runs one job at a time for heap
// allocation deltas, the _alone times and the CPU profile.
func simTraced(p params, cfg config.Config, jobs []simJob, ex *expect, t *tally) (map[string]metric, error) {
	log := newSpanLog(p)
	base, _, c0 := simPass(cfg, jobs, nproc(), nil, "", false, t)
	geo, err := fig8(jobs, base, ex, p.seed)
	t.op(err)
	traced, _, c1 := simPass(cfg, jobs, nproc(), log, "worker", true, t)
	t.op(sameCycles(base, traced, jobs))

	dir := filepath.Join(p.outDir, log.run)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(dir, "alone.cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	alone, _, _ := simPass(cfg, jobs, 1, log, "alone", true, t)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	t.op(sameCycles(base, alone, jobs))
	if err := log.write(p.outDir); err != nil {
		return nil, err
	}

	m := map[string]metric{
		"tracing.overhead":  {c1.Seconds() / c0.Seconds(), "ratio"},
		"gpu.fig8_slowdown": {geo[1], "ratio"},
	}
	tot := totals(log.exports("worker"))
	totAlone := totals(log.exports("alone"))
	for _, class := range []string{"sync", "stream"} {
		var reqs, allocs uint64
		for i, j := range jobs {
			if j.class() == class {
				reqs += traced[i].requests
				allocs += alone[i].allocs
			}
		}
		busy := busyUS(tot, class)
		m["gpu.requests."+class] = metric{float64(reqs), "count"}
		m["gpu.busy_s."+class] = metric{busy / 1e6, "s"}
		m["gpu.ns_per_request."+class] = metric{busy * 1e3 / float64(reqs), "ns"}
		m["gpu.ns_per_request_alone."+class] = metric{busyUS(totAlone, class) * 1e3 / float64(reqs), "ns"}
		m["gpu.allocs_per_request."+class] = metric{float64(allocs) / float64(reqs), "count"}
		m["gpu.detector_share."+class] = metric{detectorShare(jobs, alone, class), "ratio"}
	}
	// The lane path: host time per lane access of the stream jobs that
	// run the detector, which examines every lane.
	var laneNS, lanes float64
	for i, j := range jobs {
		if j.class() == "stream" && j.mode != config.ModeOff {
			laneNS += float64(traced[i].wall.Nanoseconds())
			lanes += float64(traced[i].st.DetectorChecks)
		}
	}
	m["gpu.ns_per_lane.stream"] = metric{laneNS / lanes, "ns"}
	sync, stream := tot["gpu.New/sync"], tot["gpu.New/stream"]
	m["gpu.new_ms"] = metric{spanTotals{n: sync.n + stream.n, durUS: sync.durUS + stream.durUS}.meanMS(), "ms"}
	modelled(m, jobs, traced)
	return m, nil
}

// busyUS is a class's host time in gpu.New and Benchmark.Run spans.
func busyUS(tot map[string]spanTotals, class string) float64 {
	return float64(tot["gpu.New/"+class].selfUS + tot["Benchmark.Run/"+class].selfUS)
}

// detectorShare is the share of a class's detection-on host time that
// detection adds: per app, (base + scord - 2*off) / (base + scord),
// summed over the class's apps before dividing. The one-at-a-time pass
// supplies the times, so jobs do not contend.
func detectorShare(jobs []simJob, outs []jobOut, class string) float64 {
	var on, off float64
	for i := 0; i+2 < len(jobs); i += len(fig8Modes) {
		if jobs[i].class() != class {
			continue
		}
		off += 2 * outs[i].wall.Seconds()
		on += outs[i+1].wall.Seconds() + outs[i+2].wall.Seconds()
	}
	return (on - off) / on
}

// modelled adds the simulated cache, NOC, DRAM, detector and phase
// counts, summed over the scord jobs. They are deterministic: a change
// to host speed alone must leave every one identical.
func modelled(m map[string]metric, jobs []simJob, outs []jobOut) {
	var st stats.Stats
	var ph gpu.PhaseAccounts
	for i, j := range jobs {
		if j.mode == config.ModeCached {
			st.Add(&outs[i].st)
			o := outs[i].ph
			ph.Issue += o.Issue
			ph.Fence += o.Fence
			ph.Barrier += o.Barrier
			ph.L1 += o.L1
			ph.NOC += o.NOC
			ph.L2 += o.L2
			ph.DRAM += o.DRAM
			ph.DetectorMeta += o.DetectorMeta
			ph.DetectorStall += o.DetectorStall
		}
	}
	count := func(name string, v uint64, unit string) { m[name] = metric{float64(v), unit} }
	count("gpu.cycles", st.Cycles, "cycles")
	count("gpu.instructions", st.Instructions, "count")
	m["cache.l1_hit_ratio"] = metric{st.L1HitRate(), "ratio"}
	count("cache.l2_data_accesses", st.L2DataAccesses, "count")
	count("cache.l2_meta_accesses", st.L2MetaAccesses, "count")
	m["cache.l2_miss_ratio"] = metric{float64(st.L2DataMisses+st.L2MetaMisses) / float64(st.L2DataAccesses+st.L2MetaAccesses), "ratio"}
	count("noc.flits", st.NOCFlits, "count")
	count("noc.extra_flits", st.NOCExtraFlits, "count")
	count("dram.data_accesses", st.DRAMDataAccesses, "count")
	count("dram.meta_accesses", st.DRAMMetaAccesses, "count")
	count("core.checks", st.DetectorChecks, "count")
	m["core.prelim_ok_ratio"] = metric{float64(st.DetectorPrelimOK) / float64(st.DetectorChecks), "ratio"}
	count("core.stall_cycles", st.DetectorStalls, "cycles")
	count("core.meta_evicts", st.MetaCacheEvicts, "count")
	for name, v := range map[string]uint64{
		"issue": ph.Issue, "fence": ph.Fence, "barrier": ph.Barrier, "l1": ph.L1, "noc": ph.NOC,
		"l2": ph.L2, "dram": ph.DRAM, "det_meta": ph.DetectorMeta, "det_stall": ph.DetectorStall,
	} {
		count("phase."+name, v, "cycles")
	}
}
