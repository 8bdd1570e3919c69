package diffval

import (
	"bytes"
	"fmt"
	"sort"

	"scord/internal/analysis/framework"
	"scord/internal/analysis/predict"
	"scord/internal/analysis/racepred"
	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// The three-way harness cross-validates the repo's three race oracles
// against each other per ROADMAP item 2(b): the dynamic detector (ground
// truth for what one schedule manifests), the static dataflow predictor
// (racepred), and the trace-predictive analysis (predict). Every suite
// configuration is run once with a trace recorder attached, so the
// dynamic observation and the predictive analysis see the *same*
// execution, then:
//
//   - recall: every dynamically observed race tuple must be predicted
//     from its own trace (the predictive analysis may never miss a race
//     the schedule actually manifested);
//   - confirmation: every predicted tuple must be confirmed by the
//     dynamic detector — on the recorded schedule or on a targeted
//     legality-preserving perturbation (replay.PerturbTarget) — or carry
//     a reviewed entry in predict.Justified (stale entries fail);
//   - agreement: predicted tuples are compared against racepred's
//     static predictions at the (bench, alloc) level, reporting the
//     agreement matrix EXPERIMENTS.md publishes.

// WorkloadStats is one row of the agreement matrix: how many race
// tuples each oracle attributes to one benchmark (injections merged,
// like diffval's dynamic observation set).
type WorkloadStats struct {
	Bench     string
	Observed  int // dynamic detector tuples (alloc, kind)
	Predicted int // predictive analysis tuples (alloc, kind)
	Racepred  int // static predictions (alloc granularity)
}

// ThreeWayReport is the outcome of one three-way cross-validation run.
type ThreeWayReport struct {
	Runs      int // suite configurations executed
	Observed  []Tuple
	Predicted []Tuple

	// Missed are observed tuples the predictive analysis did not predict
	// from the very trace that manifested them (recall failures).
	Missed []Tuple

	// ConfirmedObserved / ConfirmedPerturbed / Justified count how each
	// predicted tuple was discharged; Unjustified lists the rest.
	ConfirmedObserved  int
	ConfirmedPerturbed int
	JustifiedCount     int
	Unjustified        []string

	// Stale are predict.Justified keys matching no live unconfirmed
	// prediction.
	Stale []string

	// Agreement vs racepred at (bench, alloc) granularity.
	AgreeBoth    int // predicted by both oracles
	PredictOnly  int
	RacepredOnly int

	Workloads []WorkloadStats
}

// Recall is the fraction of observed tuples predicted from their own
// trace; the gate demands 1.0.
func (r *ThreeWayReport) Recall() float64 {
	if len(r.Observed) == 0 {
		return 1
	}
	return float64(len(r.Observed)-len(r.Missed)) / float64(len(r.Observed))
}

// threeWayRun is one recorded suite configuration with everything the
// gates need: what the detector saw, what the predictor claims, and the
// decoded trace to confirm claims on.
type threeWayRun struct {
	bench    string
	header   tracefile.Header
	ops      []tracefile.Op
	observed map[predict.Tuple]bool
	result   *predict.Result
}

// RunThreeWay performs the full three-way cross-validation. repoRoot is
// the module root holding the benchmark packages (for racepred).
func RunThreeWay(repoRoot string) (*ThreeWayReport, error) {
	pkgs, err := framework.Load(repoRoot, "./internal/scor", "./internal/scor/micro")
	if err != nil {
		return nil, err
	}
	preds, err := racepred.Predict(pkgs)
	if err != nil {
		return nil, err
	}
	runs, err := recordSuite()
	if err != nil {
		return nil, err
	}
	return crossValidate(preds, runs)
}

// recordSuite executes every suite configuration the dynamic observation
// pass uses (diffval.observe), with a trace recorder attached so the
// predictive analysis sees the exact execution the detector judged.
func recordSuite() ([]*threeWayRun, error) {
	var runs []*threeWayRun

	runOne := func(b scor.Benchmark, cfg config.Config, active []string) error {
		d, err := gpu.New(cfg)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), active, cfg))
		if err != nil {
			return err
		}
		d.SetOpSink(tw)
		if err := b.Run(d, active); err != nil {
			return fmt.Errorf("%s (injections %v): %w", b.Name(), active, err)
		}
		if err := tw.Close(); err != nil {
			return err
		}

		run := &threeWayRun{bench: b.Name(), observed: map[predict.Tuple]bool{}}
		for _, r := range d.Races() {
			al, ok := d.Mem().Locate(mem.Addr(r.Addr))
			if !ok {
				continue
			}
			run.observed[predict.Tuple{Alloc: al.Name, Kind: r.Kind}] = true
		}

		tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		run.header = tr.Header()
		if run.ops, err = replay.ReadAll(tr); err != nil {
			return err
		}
		if run.result, err = predict.Run(run.header, run.ops, predict.Options{}); err != nil {
			return fmt.Errorf("%s (injections %v): predict: %w", b.Name(), active, err)
		}
		runs = append(runs, run)
		return nil
	}

	base := config.Default().WithDetector(config.ModeFull4B)
	for _, b := range scor.Apps() {
		if err := runOne(b, base, nil); err != nil {
			return nil, err
		}
		for _, inj := range b.Injections() {
			if err := runOne(b, base, []string{inj}); err != nil {
				return nil, err
			}
		}
	}
	for _, m := range micro.All() {
		if err := runOne(m, base, nil); err != nil {
			return nil, err
		}
	}
	for _, m := range micro.Extensions() {
		cfg := config.Default().WithDetector(config.ModeFull4B)
		cfg.Detector.ITS = m.NeedsITS()
		cfg.Detector.AcqRel = m.NeedsAcqRel()
		if err := runOne(m, cfg, nil); err != nil {
			return nil, err
		}
	}
	return runs, nil
}

func crossValidate(preds []racepred.Prediction, runs []*threeWayRun) (*ThreeWayReport, error) {
	rep := &ThreeWayReport{Runs: len(runs)}

	observedSet := map[Tuple]bool{}  // bench-qualified dynamic tuples
	predictedSet := map[Tuple]bool{} // bench-qualified predicted tuples
	missedSet := map[Tuple]bool{}    // observed, not predicted from own trace
	discharged := map[Tuple]predict.Confirmation{}
	hasDischarge := map[Tuple]bool{}

	for _, run := range runs {
		for t := range run.observed {
			bt := Tuple{Bench: run.bench, Alloc: t.Alloc, Kind: t.Kind}
			observedSet[bt] = true
			// Recall gate: the tuple must be predicted from this very
			// trace, not merely from some other configuration's.
			if !run.result.Covers(t.Alloc, t.Kind) {
				missedSet[bt] = true
			}
		}
		// Confirmation gate: discharge each prediction of this run. A
		// tuple may be predicted by several runs of one bench; the
		// strongest discharge wins.
		for _, p := range run.result.Predictions {
			bt := Tuple{Bench: run.bench, Alloc: p.Alloc, Kind: p.Record.Kind}
			predictedSet[bt] = true
			if discharged[bt] == predict.ConfirmedObserved {
				continue // already maximally discharged
			}
			c, err := predict.Confirm(run.header, run.ops, p, run.observed)
			if err != nil {
				return nil, fmt.Errorf("%s: confirm %s/%s: %w", run.bench, p.Alloc, p.Record.Kind, err)
			}
			if !hasDischarge[bt] || c > discharged[bt] {
				discharged[bt] = c
				hasDischarge[bt] = true
			}
		}
	}

	rep.Observed = sortTuples(observedSet)
	rep.Predicted = sortTuples(predictedSet)
	rep.Missed = sortTuples(missedSet)

	usedJust := map[string]bool{}
	for _, bt := range rep.Predicted {
		switch discharged[bt] {
		case predict.ConfirmedObserved:
			rep.ConfirmedObserved++
		case predict.ConfirmedPerturbed:
			rep.ConfirmedPerturbed++
		default:
			key := bt.String()
			if _, ok := predict.Justified[key]; ok {
				usedJust[key] = true
				rep.JustifiedCount++
			} else {
				rep.Unjustified = append(rep.Unjustified, key)
			}
		}
	}
	for key := range predict.Justified {
		if !usedJust[key] {
			rep.Stale = append(rep.Stale, key)
		}
	}
	sort.Strings(rep.Unjustified)
	sort.Strings(rep.Stale)

	// Agreement vs racepred at (bench, alloc) granularity.
	rpAllocs := map[string]bool{}
	for _, p := range preds {
		rpAllocs[p.Bench+"/"+p.Alloc] = true
	}
	pdAllocs := map[string]bool{}
	for bt := range predictedSet {
		pdAllocs[bt.Bench+"/"+bt.Alloc] = true
	}
	for k := range pdAllocs {
		if rpAllocs[k] {
			rep.AgreeBoth++
		} else {
			rep.PredictOnly++
		}
	}
	for k := range rpAllocs {
		if !pdAllocs[k] {
			rep.RacepredOnly++
		}
	}

	rep.Workloads = workloadStats(observedSet, predictedSet, preds)
	return rep, nil
}

func sortTuples(set map[Tuple]bool) []Tuple {
	out := make([]Tuple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Alloc != b.Alloc {
			return a.Alloc < b.Alloc
		}
		return a.Kind < b.Kind
	})
	return out
}

func workloadStats(observed, predicted map[Tuple]bool, preds []racepred.Prediction) []WorkloadStats {
	idx := map[string]*WorkloadStats{}
	get := func(bench string) *WorkloadStats {
		ws := idx[bench]
		if ws == nil {
			ws = &WorkloadStats{Bench: bench}
			idx[bench] = ws
		}
		return ws
	}
	for t := range observed {
		get(t.Bench).Observed++
	}
	for t := range predicted {
		get(t.Bench).Predicted++
	}
	for _, p := range preds {
		get(p.Bench).Racepred++
	}
	out := make([]WorkloadStats, 0, len(idx))
	for _, ws := range idx {
		out = append(out, *ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bench < out[j].Bench })
	return out
}
