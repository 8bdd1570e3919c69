package harness

import (
	"fmt"
	"sort"

	"scord/internal/analysis/predict"
)

// This file is the predict gate: it checks the trace-predictive analysis
// (internal/analysis/predict) against the dynamic detector on every
// configuration of the suite corpus. Each job records one configuration,
// so the detector and the analysis see the same execution, then:
//
//   - recall: every tuple the live detector observed must be predicted
//     from its own trace;
//   - confirmation: every prediction not observed on its own schedule
//     is replayed on its PerturbTarget witness schedule (predict.Confirm).
//
// The job then drops the trace and keeps only its tuple sets. Across
// runs, a predicted tuple is discharged if it was observed in any run of
// its benchmark, else if some run confirmed it on a witness schedule,
// else by a reviewed predict.Justified entry; a Justified key matching no
// live unconfirmed prediction is stale.

// BenchTuple is a race tuple qualified by its benchmark.
type BenchTuple struct {
	Bench string
	predict.Tuple
}

func (t BenchTuple) String() string { return t.Bench + "/" + t.Tuple.String() }

// BenchCount sizes one benchmark's observed and predicted tuple sets,
// injections merged.
type BenchCount struct {
	Bench               string
	Observed, Predicted int
}

// PredictReport is the predict gate's verdict across the suite corpus.
type PredictReport struct {
	Runs      int
	Observed  []BenchTuple
	Predicted []BenchTuple
	// Missed are observed tuples not predicted from the trace that
	// manifested them.
	Missed []BenchTuple

	// ConfirmedObserved, ConfirmedPerturbed and Justified count how each
	// predicted tuple was discharged; Unjustified lists the rest.
	ConfirmedObserved  int
	ConfirmedPerturbed int
	Justified          int
	Unjustified        []string
	// Stale are justification keys matching no live unconfirmed
	// prediction.
	Stale []string

	Benches []BenchCount
}

// Recall is the fraction of observed tuples predicted from their own
// trace; the gate demands 1.0.
func (r *PredictReport) Recall() float64 {
	if len(r.Observed) == 0 {
		return 1
	}
	return float64(len(r.Observed)-len(r.Missed)) / float64(len(r.Observed))
}

// GateErrors lists every gate violation in the report.
func (r *PredictReport) GateErrors() []string {
	var errs []string
	for _, t := range r.Missed {
		errs = append(errs, fmt.Sprintf("recall miss: observed race %s not predicted from its own trace", t))
	}
	for _, key := range r.Unjustified {
		errs = append(errs, fmt.Sprintf("unconfirmed prediction %s: not observed, no PerturbTarget witness schedule, no justification", key))
	}
	for _, key := range r.Stale {
		errs = append(errs, fmt.Sprintf("stale justification %q matches no unconfirmed prediction", key))
	}
	return errs
}

// predictRun is what the gate keeps of one configuration once its trace
// is dropped.
type predictRun struct {
	bench     string
	observed  map[predict.Tuple]bool // the live detector's tuples
	predicted map[predict.Tuple]bool
	perturbed map[predict.Tuple]bool // confirmed on a witness schedule
}

// predictConfig records one configuration, analyses its trace and
// confirms each prediction its own schedule did not show.
func predictConfig(c suiteConfig) (predictRun, error) {
	h, ops, observed, err := c.record()
	if err != nil {
		return predictRun{}, err
	}
	res, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		return predictRun{}, err
	}
	run := predictRun{bench: c.bench, observed: observed,
		predicted: map[predict.Tuple]bool{}, perturbed: map[predict.Tuple]bool{}}
	for _, p := range res.Predictions {
		t := p.Tuple()
		run.predicted[t] = true
		if observed[t] || run.perturbed[t] {
			continue
		}
		conf, err := predict.Confirm(h, ops, p, observed)
		if err != nil {
			return predictRun{}, fmt.Errorf("confirm %s: %w", t, err)
		}
		if conf == predict.ConfirmedPerturbed {
			run.perturbed[t] = true
		}
	}
	return run, nil
}

// predictReport merges the runs into the gate's verdict. justified maps
// "BENCH/alloc/kind" keys to their reviewed reasons.
func predictReport(runs []predictRun, justified map[string]string) *PredictReport {
	rep := &PredictReport{Runs: len(runs)}
	observed := map[BenchTuple]bool{}
	predicted := map[BenchTuple]bool{}
	perturbed := map[BenchTuple]bool{}
	missed := map[BenchTuple]bool{}
	for _, r := range runs {
		for t := range r.observed {
			observed[BenchTuple{r.bench, t}] = true
			if !r.predicted[t] {
				missed[BenchTuple{r.bench, t}] = true
			}
		}
		for t := range r.predicted {
			predicted[BenchTuple{r.bench, t}] = true
		}
		for t := range r.perturbed {
			perturbed[BenchTuple{r.bench, t}] = true
		}
	}
	rep.Observed = sortedBenchTuples(observed)
	rep.Predicted = sortedBenchTuples(predicted)
	rep.Missed = sortedBenchTuples(missed)

	used := map[string]bool{}
	for _, bt := range rep.Predicted {
		key := bt.String()
		_, ok := justified[key]
		switch {
		case observed[bt]:
			rep.ConfirmedObserved++
		case perturbed[bt]:
			rep.ConfirmedPerturbed++
		case ok:
			used[key] = true
			rep.Justified++
		default:
			rep.Unjustified = append(rep.Unjustified, key)
		}
	}
	for key := range justified {
		if !used[key] {
			rep.Stale = append(rep.Stale, key)
		}
	}
	sort.Strings(rep.Stale)

	counts := map[string]*BenchCount{}
	count := func(bench string) *BenchCount {
		c := counts[bench]
		if c == nil {
			c = &BenchCount{Bench: bench}
			counts[bench] = c
		}
		return c
	}
	for _, bt := range rep.Observed {
		count(bt.Bench).Observed++
	}
	for _, bt := range rep.Predicted {
		count(bt.Bench).Predicted++
	}
	for _, c := range counts {
		rep.Benches = append(rep.Benches, *c)
	}
	sort.Slice(rep.Benches, func(i, j int) bool { return rep.Benches[i].Bench < rep.Benches[j].Bench })
	return rep
}

// sortedBenchTuples orders a tuple set by bench, then allocation and
// kind.
func sortedBenchTuples(set map[BenchTuple]bool) []BenchTuple {
	out := make([]BenchTuple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Tuple.Less(out[j].Tuple)
	})
	return out
}

// predictRuns records and analyses the given configurations on the
// worker pool, one trace per job.
func predictRuns(opt Options, configs []suiteConfig) ([]predictRun, error) {
	return runConfigs(opt, "predict", configs, predictConfig)
}

// RunPredictSuite runs the predict gate over the whole suite corpus.
func RunPredictSuite(opt Options) (*PredictReport, error) {
	runs, err := predictRuns(opt, suiteCorpus())
	if err != nil {
		return nil, err
	}
	return predictReport(runs, predict.Justified), nil
}
