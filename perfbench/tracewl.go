package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/obs/tracing"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/stats"
	"scord/internal/tracefile"
)

// The trace workload is offline analysis, one task at a time as
// scord-replay runs it, over traces recorded at set-up: (a) decode each
// app trace and replay it under all five models, (b) decode each app
// trace, predict and check every witness, (c) one explore-suite row per
// micro, the masked-race example and RED's two injections. It runs
// tracefile, replay, core, detectors, predict and explore on long traces
// without the simulator. The other app injections stay out: each takes
// longer to predict and explore than a whole pass.

// exploreBudget is the explore suite's schedule budget per row.
const exploreBudget = 64

// recorded is one trace recorded live at set-up, with the live run's
// race records and detector counters to check replays against.
type recorded struct {
	name     string
	raw      []byte
	races    []core.Record
	counters stats.Stats
}

// corpus is the trace workload's set-up output.
type corpus struct {
	apps []recorded // the seven clean apps
	rows []recorded // the micros, then RED's injections
}

// record runs one benchmark live in mode base with a trace writer
// attached, as `scord-replay record` does.
func record(cfg config.Config, b scor.Benchmark, active []string, tr *tracing.Tracer) (recorded, error) {
	name := b.Name()
	if len(active) > 0 {
		name += "/" + active[0]
	}
	root := span(tr, nil, "record "+name)
	defer finish(root)
	c := cfg.WithDetector(config.ModeFull4B)
	s := span(tr, root, "gpu.New")
	d, err := gpu.New(c)
	finish(s)
	if err != nil {
		return recorded{}, err
	}
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), active, c))
	if err != nil {
		return recorded{}, err
	}
	d.SetOpSink(w)
	s = span(tr, root, "Benchmark.Run")
	err = b.Run(d, active)
	finish(s)
	if err != nil {
		return recorded{}, fmt.Errorf("record %s: %w", name, err)
	}
	if err := w.Close(); err != nil {
		return recorded{}, fmt.Errorf("record %s: %w", name, err)
	}
	return recorded{name: name, raw: buf.Bytes(), races: d.Races(), counters: replay.DetectorCounters(d.Stats())}, nil
}

// recordCorpus is the trace workload's set-up: the seven clean apps, the
// 32 micros and RED's two injections, recorded one at a time.
func recordCorpus(cfg config.Config, smoke bool, tr *tracing.Tracer) (*corpus, error) {
	c := &corpus{}
	for _, b := range scor.Apps() {
		if smoke && b.Name() != "MM" && b.Name() != "RED" {
			continue
		}
		r, err := record(cfg, b, nil, tr)
		if err != nil {
			return nil, err
		}
		c.apps = append(c.apps, r)
	}
	micros := micro.Benchmarks()
	if smoke {
		micros = micros[:4]
	}
	for _, b := range micros {
		r, err := record(cfg, b, nil, tr)
		if err != nil {
			return nil, err
		}
		c.rows = append(c.rows, r)
	}
	injections := scor.NewRED().Injections()
	if smoke {
		injections = injections[:1]
	}
	for _, inj := range injections {
		r, err := record(cfg, scor.NewRED(), []string{inj}, tr)
		if err != nil {
			return nil, err
		}
		c.rows = append(c.rows, r)
	}
	return c, nil
}

func (c *corpus) all() []recorded { return append(append([]recorded{}, c.apps...), c.rows...) }

// sameCorpus checks that a repeated set-up recorded identical traces.
func sameCorpus(a, b *corpus) error {
	bs := b.all()
	for i, r := range a.all() {
		if !bytes.Equal(r.raw, bs[i].raw) {
			return fmt.Errorf("set-up recorded %s differently on a repeat at the same seed", r.name)
		}
	}
	return nil
}

// traceProbe is a traced pass's extra instrumentation: timed replay
// targets, and the work and heap allocation counts of decode, prediction
// and exploration.
type traceProbe struct {
	calls       map[string]*timedTarget
	decodeBytes float64
	decodeOps   float64
	decodeAlloc float64
	predictOps  float64
	predAlloc   float64
	predictions int
	classes     int
	pruned      int
	boundedOut  int
}

// decode reads a whole trace, as scord-replay does before analysing it.
func decode(raw []byte, tr *tracing.Tracer, parent *tracing.Span, pr *traceProbe) (tracefile.Header, []tracefile.Op, error) {
	s := span(tr, parent, "tracefile.decode")
	defer finish(s)
	var a0 uint64
	if pr != nil {
		a0, _ = mallocs()
	}
	r, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		return tracefile.Header{}, nil, err
	}
	ops, err := replay.ReadAll(r)
	if err != nil {
		return tracefile.Header{}, nil, err
	}
	if pr != nil {
		a1, _ := mallocs()
		pr.decodeAlloc += float64(a1 - a0)
		pr.decodeBytes += float64(len(raw))
		pr.decodeOps += float64(len(ops))
	}
	return r.Header(), ops, nil
}

// replayUnder builds one model through the registry and replays ops
// under it, timing every call into the model when traced.
func replayUnder(name string, h tracefile.Header, ops []tracefile.Op, tr *tracing.Tracer, parent *tracing.Span, pr *traceProbe) (*replay.Result, replay.Target, error) {
	s := span(tr, parent, "replay.TargetByName/"+name)
	t, err := replay.TargetByName(name, h.Config)
	finish(s)
	if err != nil {
		return nil, nil, err
	}
	run := t
	if pr != nil {
		tt := pr.calls[name]
		if tt == nil {
			tt = &timedTarget{}
			pr.calls[name] = tt
		}
		tt.Target = t
		run = tt
	}
	s = span(tr, parent, "replay.RunOps/"+name)
	res, err := replay.RunOps(h, ops, run)
	finish(s)
	return res, t, err
}

// checkLive compares a ScoRD replay with the live run it was recorded
// from: same race records, same detector counters.
func checkLive(rec recorded, res *replay.Result, t replay.Target) error {
	if len(res.Races) != len(rec.races) {
		return fmt.Errorf("%s: ScoRD replay reports %d races, the live run %d", rec.name, len(res.Races), len(rec.races))
	}
	for i := range res.Races {
		if res.Races[i] != rec.races[i] {
			return fmt.Errorf("%s: replayed race %d differs from the live run", rec.name, i)
		}
	}
	if sc, ok := t.(*replay.ScoRD); !ok || sc.Counters() != rec.counters {
		return fmt.Errorf("%s: replayed detector counters differ from the live run", rec.name)
	}
	return nil
}

// taskReplay is task (a) on one app trace: decode, then replay under
// every model (`scord-replay replay -detector all`).
func taskReplay(rec recorded, tr *tracing.Tracer, pr *traceProbe) (int, error) {
	root := span(tr, nil, "task-a "+rec.name)
	defer finish(root)
	h, ops, err := decode(rec.raw, tr, root, pr)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rec.name, err)
	}
	for _, name := range replay.TargetNames() {
		res, t, err := replayUnder(name, h, ops, tr, root, pr)
		if err != nil {
			return 0, fmt.Errorf("%s under %s: %w", rec.name, name, err)
		}
		if name == "scord" {
			if err := checkLive(rec, res, t); err != nil {
				return 0, err
			}
		}
	}
	return len(ops), nil
}

// observedTuples resolves race records to (allocation, kind) tuples.
func observedTuples(m *mem.Memory, races []core.Record) map[predict.Tuple]bool {
	out := map[predict.Tuple]bool{}
	for _, r := range races {
		var alloc string
		if al, ok := m.Locate(mem.Addr(r.Addr)); ok {
			alloc = al.Name
		}
		out[predict.Tuple{Alloc: alloc, Kind: r.Kind}] = true
	}
	return out
}

// runPredict runs the predictive analysis, counting its input ops,
// heap allocations and predictions when traced.
func runPredict(h tracefile.Header, ops []tracefile.Op, tr *tracing.Tracer, parent *tracing.Span, pr *traceProbe) (*predict.Result, error) {
	var a0 uint64
	if pr != nil {
		a0, _ = mallocs()
	}
	s := span(tr, parent, "predict.Run")
	res, err := predict.Run(h, ops, predict.Options{})
	finish(s)
	if err == nil && pr != nil {
		a1, _ := mallocs()
		pr.predAlloc += float64(a1 - a0)
		pr.predictOps += float64(len(ops))
		pr.predictions += len(res.Predictions)
	}
	return res, err
}

// taskPredict is task (b) on one app trace: decode, predict, and check
// every witness (`scord-replay predict`, whose -check is on by default).
// Every race the live run observed must be predicted.
func taskPredict(rec recorded, tr *tracing.Tracer, pr *traceProbe) (int, error) {
	root := span(tr, nil, "task-b "+rec.name)
	defer finish(root)
	h, ops, err := decode(rec.raw, tr, root, pr)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rec.name, err)
	}
	res, err := runPredict(h, ops, tr, root, pr)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", rec.name, err)
	}
	for _, p := range res.Predictions {
		s := span(tr, root, "predict.CheckWitness")
		err := predict.CheckWitness(h, ops, p.Witness)
		finish(s)
		if err != nil {
			return 0, fmt.Errorf("%s: witness for %s/%s: %w", rec.name, p.Alloc, p.Record.Kind, err)
		}
	}
	for t := range observedTuples(res.Mem, rec.races) {
		if !res.Covers(t.Alloc, t.Kind) {
			return 0, fmt.Errorf("%s: observed race %s not predicted", rec.name, t)
		}
	}
	return len(ops), nil
}

// taskExplore is task (c) on one trace: an explore-suite row. rec is
// nil for the in-memory masked-race example. It returns the trace's op
// count and fails on any of the suite's three gates: every
// race observed on the recorded schedule and every greedily confirmed
// prediction must be found, and every finding's witness must check.
func taskExplore(rec *recorded, tr *tracing.Tracer, pr *traceProbe) (int, error) {
	name := "explore.masked"
	if rec != nil {
		name = rec.name
	}
	root := span(tr, nil, "task-c "+name)
	defer finish(root)
	var (
		h   tracefile.Header
		ops []tracefile.Op
		err error
	)
	if rec == nil {
		h, ops = explore.MaskedRaceExample()
	} else if h, ops, err = decode(rec.raw, tr, root, pr); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	res, t, err := replayUnder("scord", h, ops, tr, root, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	if rec != nil {
		if err := checkLive(*rec, res, t); err != nil {
			return 0, err
		}
	}
	observed := observedTuples(res.Mem, res.Races)
	pres, err := runPredict(h, ops, tr, root, pr)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	greedy := map[predict.Tuple]bool{}
	for _, p := range pres.Predictions {
		s := span(tr, root, "predict.Confirm")
		c, err := predict.Confirm(h, ops, p, observed)
		finish(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		if c != predict.Unconfirmed {
			greedy[predict.Tuple{Alloc: p.Alloc, Kind: p.Record.Kind}] = true
		}
	}
	s := span(tr, root, "explore.Explore")
	v, err := explore.Explore(h, ops, explore.Options{MaxSchedules: exploreBudget, Jobs: nproc(), Seeds: pres.Predictions})
	finish(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	for _, f := range v.Races {
		if !f.WitnessOK {
			return 0, fmt.Errorf("%s: finding %s has an unverified witness", name, f.Tuple())
		}
	}
	for _, set := range []map[predict.Tuple]bool{observed, greedy} {
		for t := range set {
			if !v.Covers(t.Alloc, t.Kind) {
				return 0, fmt.Errorf("%s: race %s not found by the explorer", name, t)
			}
		}
	}
	if pr != nil {
		pr.classes += v.Explored
		pr.pruned += v.Pruned
		pr.boundedOut += v.BoundedOut
	}
	return len(ops), nil
}

// traceUnit is one task on one input; a pass runs every unit once. A
// unit returns the op count of the trace it analysed.
type traceUnit func(tr *tracing.Tracer, pr *traceProbe) (int, error)

func traceUnits(c *corpus) []traceUnit {
	var units []traceUnit
	for _, rec := range c.apps {
		rec := rec
		units = append(units, func(tr *tracing.Tracer, pr *traceProbe) (int, error) { return taskReplay(rec, tr, pr) })
	}
	for _, rec := range c.apps {
		rec := rec
		units = append(units, func(tr *tracing.Tracer, pr *traceProbe) (int, error) { return taskPredict(rec, tr, pr) })
	}
	for i := range c.rows {
		rec := &c.rows[i]
		units = append(units, func(tr *tracing.Tracer, pr *traceProbe) (int, error) { return taskExplore(rec, tr, pr) })
	}
	return append(units, func(tr *tracing.Tracer, pr *traceProbe) (int, error) { return taskExplore(nil, tr, pr) })
}

// unitTimes holds each unit's op count and host CPU seconds.
type unitTimes struct {
	work []int
	secs [][]float64
}

// tracePass runs every unit once, in order, and appends its times. It
// returns the pass's host CPU seconds.
func tracePass(units []traceUnit, ut *unitTimes, tr *tracing.Tracer, pr *traceProbe, t *tally) float64 {
	var total float64
	for i, run := range units {
		c0 := cpuTime()
		n, err := run(tr, pr)
		d := (cpuTime() - c0).Seconds()
		t.op(err)
		total += d
		ut.work[i] = n
		ut.secs[i] = append(ut.secs[i], d)
	}
	return total
}

// rate is the ops analysed per host CPU second: every unit's ops over
// the sum of the units' median times, so a burst of noise in one unit's
// run moves only that unit's median.
func (ut *unitTimes) rate() float64 {
	var work, secs float64
	for i := range ut.work {
		work += float64(ut.work[i])
		secs += median(ut.secs[i])
	}
	return work / secs
}

func newUnitTimes(n int) *unitTimes {
	return &unitTimes{work: make([]int, n), secs: make([][]float64, n)}
}

func runTraceWorkload(p params, t *tally) (map[string]metric, error) {
	cfg := config.Default()
	cfg.Seed = p.seed
	if p.trace {
		return traceTraced(p, cfg, t)
	}
	c, setupS, err := timeSetup(func() (*corpus, error) { return recordCorpus(cfg, p.smoke, nil) },
		func(first, again *corpus) { t.op(sameCorpus(first, again)) })
	if err != nil {
		return nil, err
	}
	units := traceUnits(c)
	ut := newUnitTimes(len(units))
	start := time.Now()
	var latency []float64
	// Start another pass only if it should end within the run, once there
	// are two.
	for {
		s0, t0 := readCPUStat(), time.Now()
		cpu := tracePass(units, ut, nil, nil, t)
		wall := time.Since(t0)
		latency = append(latency, ms(wall)*unstolenShare(s0, readCPUStat()))
		fmt.Fprintf(os.Stderr, "perfbench: trace pass %d: %.2f cpu-s\n", len(latency), cpu)
		if p.smoke || (len(latency) >= 2 && time.Since(start)+wall > time.Duration(p.seconds*float64(time.Second))) {
			break
		}
	}
	return endToEnd(setupS, ut.rate(), latency), nil
}

// traceTraced is the trace workload's traced run: set-up once with
// spans, an untraced pass as the overhead baseline, then a traced pass
// with timed replay targets and heap counters, plus a dispatch-only
// replay and a re-encode of every app trace.
func traceTraced(p params, cfg config.Config, t *tally) (map[string]metric, error) {
	log := newSpanLog(p)
	tr := log.tracer("main")
	c, err := recordCorpus(cfg, p.smoke, tr)
	if err != nil {
		return nil, err
	}
	units := traceUnits(c)
	w0 := tracePass(units, newUnitTimes(len(units)), nil, nil, t)
	pr := &traceProbe{calls: map[string]*timedTarget{}}
	w1 := tracePass(units, newUnitTimes(len(units)), tr, pr, t)

	var appOps, appBytes float64
	for _, rec := range c.apps {
		h, ops, err := decode(rec.raw, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		s := span(tr, nil, "replay.RunOps/null")
		_, err = replay.RunOps(h, ops, nullTarget{})
		finish(s)
		t.op(err)
		s = span(tr, nil, "tracefile.encode")
		raw, err := encode(h, ops)
		finish(s)
		appOps += float64(len(ops))
		appBytes += float64(len(raw))
		if err == nil && !bytes.Equal(raw, rec.raw) {
			err = fmt.Errorf("%s: re-encoded trace differs from the recording", rec.name)
		}
		t.op(err)
	}
	if err := log.write(p.outDir); err != nil {
		return nil, err
	}

	tot := totals(log.exports(""))
	clock := clockCost()
	m := map[string]metric{
		"tracing.overhead":               {w1 / w0, "ratio"},
		"tracefile.decode_mb_per_s":      {pr.decodeBytes / float64(tot["tracefile.decode"].durUS), "MB/s"},
		"tracefile.decode_allocs_per_op": {pr.decodeAlloc / pr.decodeOps, "count"},
		"tracefile.encode_mb_per_s":      {appBytes / float64(tot["tracefile.encode"].durUS), "MB/s"},
		"replay.dispatch_ns_per_op":      {float64(tot["replay.RunOps/null"].durUS) * 1e3 / appOps, "ns"},
		"predict.ns_per_op":              {float64(tot["predict.Run"].durUS) * 1e3 / pr.predictOps, "ns"},
		"predict.allocs_per_op":          {pr.predAlloc / pr.predictOps, "count"},
		"predict.predictions":            {float64(pr.predictions), "count"},
		"predict.witness_ms":             {tot["predict.CheckWitness"].meanMS(), "ms"},
		"explore.classes":                {float64(pr.classes), "count"},
		"explore.pruned":                 {float64(pr.pruned), "count"},
		"explore.bounded_out":            {float64(pr.boundedOut), "count"},
		"explore.prune_ratio":            {float64(pr.pruned) / float64(pr.pruned+pr.classes), "ratio"},
		"explore.ms_per_class":           {float64(tot["explore.Explore"].durUS) / 1e3 / float64(pr.classes), "ms"},
		"explore.confirm_ms":             {tot["predict.Confirm"].meanMS(), "ms"},
	}
	for _, name := range replay.TargetNames() {
		tt := pr.calls[name]
		m["replay.construct_ms."+name] = metric{tot["replay.TargetByName/"+name].meanMS(), "ms"}
		m["replay.kernel_start_ms."+name] = metric{(tt.kernelStart.Seconds()*1e3 - float64(tt.nKernel)*clock/1e6) / float64(tt.nKernel), "ms"}
		m["replay.ns_per_access."+name] = metric{(float64(tt.access.Nanoseconds()) - float64(tt.nAccess)*clock) / float64(tt.nAccess), "ns"}
	}
	return m, nil
}

// timedTarget wraps a replay model and times the calls the replay
// engine makes into it per kernel and per access; fences pass through.
type timedTarget struct {
	replay.Target
	kernelStart, access time.Duration
	nKernel, nAccess    int
}

func (t *timedTarget) OnKernelStart() {
	t0 := time.Now()
	t.Target.OnKernelStart()
	t.kernelStart += time.Since(t0)
	t.nKernel++
}

func (t *timedTarget) OnAccess(a core.Access, aop core.AtomicOp) {
	t0 := time.Now()
	t.Target.OnAccess(a, aop)
	t.access += time.Since(t0)
	t.nAccess++
}

// clockCost is the duration in ns that timedTarget reads around an
// empty call: the clock's own cost, subtracted from per-call times.
func clockCost() float64 {
	const n = 1 << 16
	var samples []float64
	for r := 0; r < 5; r++ {
		var d time.Duration
		for i := 0; i < n; i++ {
			t0 := time.Now()
			d += time.Since(t0)
		}
		samples = append(samples, float64(d.Nanoseconds())/n)
	}
	return median(samples)
}

// nullTarget is a model that does nothing: a replay under it costs only
// the replay engine's own dispatch.
type nullTarget struct{}

func (nullTarget) Name() string                        { return "null" }
func (nullTarget) OnKernelStart()                      {}
func (nullTarget) OnAccess(core.Access, core.AtomicOp) {}
func (nullTarget) OnFence(int, int, core.Scope)        {}
func (nullTarget) Records() []core.Record              { return nil }

// encode writes decoded ops back through a tracefile.Writer, the
// encoder every recording uses.
func encode(h tracefile.Header, ops []tracefile.Op) ([]byte, error) {
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, h)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case tracefile.OpAccess:
			w.Access(op.Access, op.AtomicOp, op.Size)
		case tracefile.OpFence:
			w.Fence(op.Block, op.Warp, op.Scope, op.Cycle, op.FromBarrier)
		case tracefile.OpBarrier:
			w.Barrier(op.Block, op.BarrierID, op.Warps, op.Cycle)
		case tracefile.OpKernel:
			w.KernelStart(op.Name, op.Blocks, op.Threads, op.Cycle)
		case tracefile.OpKernelEnd:
			w.KernelEnd(op.Name, op.Cycle)
		case tracefile.OpAlloc:
			w.Alloc(op.Name, op.Base, op.Bytes)
		default:
			return nil, fmt.Errorf("encode: unknown op kind %v", op.Kind)
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
