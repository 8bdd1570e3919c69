package harness

import (
	"fmt"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/stats"
)

// The experiments share most of their device simulations: Figures 8 and
// 9 read the same 21 runs, one no-detection run per application
// normalizes Figures 8, 9 and 11 and all 14 ablation points, and in a
// full run each ablation's default point is an earlier experiment's. So no
// experiment simulates anything itself. It asks a plan for the outcome of
// each run it needs, named by a key (the benchmark, the whole device
// configuration, and whether the benchmark's race injections are on), and
// assembles its table from the outcomes. Evaluate builds an experiment
// twice: the first build lists the runs the outcome map does not hold
// yet, reading their outcomes as zero; runAll simulates each of those
// once, labelled by the experiment that asked for it first; the second
// build assembles the result from real outcomes. Experiments evaluated
// through one Runs share every run they have in common: the full
// evaluation requests 460 runs and simulates 253.
//
// The ablations take their no-detection baseline from the unmodified
// configuration, not from the swept one: gpu.New builds no detector in
// ModeOff and the timing model reads detector parameters only while
// detection is on, so the swept parameter cannot change a baseline.

// key names one device simulation by everything its outcome depends on.
type key struct {
	bench  string
	cfg    config.Config // detector mode and parameters included
	inject bool          // the benchmark's race injections are active
}

// outcome is what experiments read from one simulation.
type outcome struct {
	st     stats.Stats
	cycles uint64 // the device's final cycle, gpu.Device.Cycles
	phases gpu.PhaseAccounts
	races  scor.MatchResult // the device's records against the run's expected races
	// t8 is a microbenchmark's Table VIII verdict per detector: the four
	// comparison models ride the device's op stream, and ScoRD is the
	// device's own detector.
	t8 map[string]t8verdict
}

// request is a run the outcome map does not hold yet.
type request struct {
	label string // the first asking experiment's name for the run
	key   key
	out   *outcome // where the simulation stores its outcome
}

// plan hands one experiment build the outcomes of the runs it asks for,
// and records the runs not simulated yet.
type plan struct {
	cfg     config.Config // the evaluation's base configuration
	done    map[key]*outcome
	missing []request
	asked   int // runs asked for, repeats included
}

// run returns the outcome of benchmark b under cfg, with its race
// injections active if inject is set. A run the map does not hold yet is
// recorded under label and reads as the zero outcome until simulated.
func (p *plan) run(label string, b scor.Benchmark, cfg config.Config, inject bool) outcome {
	p.asked++
	k := key{b.Name(), cfg, inject && len(b.Injections()) > 0}
	o, ok := p.done[k]
	if !ok {
		o = &outcome{}
		p.done[k] = o
		p.missing = append(p.missing, request{label, k, o})
	}
	return *o
}

// Result is what every experiment produces: a rendered text table, and
// CSV rows for plotting.
type Result interface {
	Render() string
	CSVer
}

// Experiment is one table, figure or ablation of the evaluation.
type Experiment struct {
	Name  string
	build func(*plan) Result
}

func experiment[R Result](name string, build func(*plan) R) Experiment {
	return Experiment{name, func(p *plan) Result { return build(p) }}
}

// Experiments is the whole evaluation, in scord-eval's order.
var Experiments = []Experiment{
	experiment("table6", table6),
	experiment("table7", table7),
	experiment("table8", table8),
	experiment("fig8", fig8),
	experiment("fig9", fig9),
	experiment("fig10", fig10),
	experiment("fig11", fig11),
	experiment("phases", phaseProfile),
	experiment("ablation-ratio", ablationCacheRatio),
	experiment("ablation-inbox", ablationInbox),
	experiment("ablation-rate", ablationRate),
}

// Runs is the outcome map experiments share: every run simulated so far,
// by key. It is not safe for concurrent use.
type Runs struct{ done map[key]*outcome }

// NewRuns returns an empty outcome map.
func NewRuns() *Runs { return &Runs{done: map[key]*outcome{}} }

// Evaluate simulates every run e needs that r does not hold yet, on opt's
// worker pool, and assembles e's result. An experiment whose runs r holds
// already dispatches nothing. A failed or canceled evaluation adds no run
// to r.
func (r *Runs) Evaluate(opt Options, e Experiment) (Result, error) {
	p := &plan{cfg: opt.cfg(), done: r.done}
	if res := e.build(p); len(p.missing) == 0 {
		return res, nil
	}
	sims := make([]Sim, len(p.missing))
	for i, q := range p.missing {
		sims[i] = Sim{Label: q.label, Run: func() (err error) {
			*q.out, err = simulate(opt, q.label, q.key)
			return err
		}}
	}
	if err := runAll(opt, sims); err != nil {
		for _, q := range p.missing {
			delete(r.done, q.key)
		}
		return nil, err
	}
	return e.build(p), nil
}

// evaluate runs one experiment on an outcome map of its own.
func evaluate[R Result](opt Options, build func(*plan) R) (R, error) {
	res, err := NewRuns().Evaluate(opt, experiment("", build))
	r, _ := res.(R)
	return r, err
}

// simulate runs one keyed simulation on a fresh device and a fresh
// benchmark instance, so concurrent jobs share nothing.
func simulate(opt Options, label string, k key) (outcome, error) {
	b := benchmark(k.bench)
	var active []string
	if k.inject {
		active = b.Injections()
	}
	d, err := gpu.New(k.cfg)
	if err != nil {
		return outcome{}, err
	}
	flush := opt.observe(d, label)
	defer flush()
	_, isMicro := b.(*micro.Micro)
	var models replay.Sink
	if isMicro {
		if models, err = comparisonModels(d.Config()); err != nil {
			return outcome{}, err
		}
		d.SetOpSink(models)
	}
	if err := b.Run(d, active); err != nil {
		return outcome{}, fmt.Errorf("%s [%v/%v]: %w", b.Name(), k.cfg.Detector.Mode, active, err)
	}
	specs := b.ExpectedRaces(active)
	o := outcome{st: *d.Stats(), cycles: d.Cycles(), phases: d.Phases(), races: scor.MatchRaces(d, specs)}
	if isMicro {
		o.t8 = map[string]t8verdict{"ScoRD": scoreRecords(d.Mem(), d.Races(), specs)}
		for _, m := range models {
			o.t8[m.Name()] = scoreRecords(d.Mem(), m.Records(), specs)
		}
	}
	return o, nil
}

// benchmark returns a fresh instance of the named application or
// microbenchmark.
func benchmark(name string) scor.Benchmark {
	for _, b := range scor.Apps() {
		if b.Name() == name {
			return b
		}
	}
	for _, m := range micro.All() {
		if m.Name() == name {
			return m
		}
	}
	panic("harness: unknown benchmark " + name)
}
