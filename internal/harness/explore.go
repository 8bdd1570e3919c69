package harness

import (
	"fmt"
	"io"
	"strings"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/tracefile"
)

// This file runs the schedule explorer (internal/analysis/explore) over
// the whole suite on the harness worker pool: every app injection, every
// base micro, and the synthetic masked-race example. Each row records
// the configuration, explores the trace with the predictor's predictions
// as seeds, and gates the result four ways:
//
//   - every race the dynamic detector observed on the recorded schedule
//     must be found (schedule 0 replays the recorded equivalence class);
//   - every prediction the greedy PerturbTarget walk confirms must be
//     found (the seed phase guarantees explorer ⊇ greedy walk);
//   - every finding must be predicted from the recorded trace (the
//     explorer reaches only legal reorderings, and predict is sound over
//     them);
//   - every finding's witness must pass predict.CheckWitness.
//
// Races the explorer reaches beyond both oracles are counted as
// BeyondGreedy — the masked example must contribute at least one.

// ExploreRow is one configuration's exploration outcome.
type ExploreRow struct {
	Bench     string `json:"bench"`
	Injection string `json:"injection,omitempty"`
	// ExpectRacey marks configurations whose recorded schedule should
	// already race (injections and racey micros).
	ExpectRacey bool `json:"expect_racey"`

	Ops        int  `json:"ops"`
	Explored   int  `json:"explored"`
	Pruned     int  `json:"pruned"`
	BoundedOut int  `json:"bounded_out"`
	Seeded     int  `json:"seeded"`
	Exhaustive bool `json:"exhaustive"`

	// Races are the explorer's distinct tuples, in verdict order.
	Races []string `json:"races,omitempty"`
	// Dynamic and GreedyConfirmed size the two oracle sets.
	Dynamic         int `json:"dynamic"`
	GreedyConfirmed int `json:"greedy_confirmed"`
	// BeyondGreedy counts explorer races neither oracle reaches.
	BeyondGreedy int `json:"beyond_greedy"`

	// Gate failures (empty/zero on a healthy run).
	MissedDynamic []string `json:"missed_dynamic,omitempty"`
	MissedGreedy  []string `json:"missed_greedy,omitempty"`
	// MissedPredicted lists explorer races that predict.Run did not
	// predict from the recorded trace.
	MissedPredicted []string `json:"missed_predicted,omitempty"`
	WitnessFailures int      `json:"witness_failures,omitempty"`
}

// ExploreTable is the suite-wide exploration report.
type ExploreTable struct {
	Rows []ExploreRow `json:"rows"`
}

// GateErrors lists every gate violation in the table.
func (t *ExploreTable) GateErrors() []string {
	var errs []string
	for _, r := range t.Rows {
		label := r.Bench
		if r.Injection != "" {
			label += "/" + r.Injection
		}
		for _, m := range r.MissedDynamic {
			errs = append(errs, fmt.Sprintf("%s: dynamic race %s not found by the explorer", label, m))
		}
		for _, m := range r.MissedGreedy {
			errs = append(errs, fmt.Sprintf("%s: greedy-confirmed prediction %s not found by the explorer", label, m))
		}
		for _, m := range r.MissedPredicted {
			errs = append(errs, fmt.Sprintf("%s: explorer race %s not predicted from the recorded trace", label, m))
		}
		if r.WitnessFailures > 0 {
			errs = append(errs, fmt.Sprintf("%s: %d findings with unverified witnesses", label, r.WitnessFailures))
		}
	}
	return errs
}

// BeyondGreedy sums races only systematic exploration reached.
func (t *ExploreTable) BeyondGreedy() int {
	n := 0
	for _, r := range t.Rows {
		n += r.BeyondGreedy
	}
	return n
}

// WriteText renders the table deterministically.
func (t *ExploreTable) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-36s %-20s %8s %8s %7s %7s %6s %5s  %s\n",
		"bench", "injection", "explored", "pruned", "bounded", "seeded", "races", "new", "exhaustive")
	for _, r := range t.Rows {
		inj := r.Injection
		if inj == "" {
			inj = "-"
		}
		fmt.Fprintf(w, "%-36s %-20s %8d %8d %7d %7d %6d %5d  %v\n",
			r.Bench, inj, r.Explored, r.Pruned, r.BoundedOut, r.Seeded,
			len(r.Races), r.BeyondGreedy, r.Exhaustive)
		for _, race := range r.Races {
			fmt.Fprintf(w, "    race %s\n", race)
		}
	}
	fmt.Fprintf(w, "\nraces beyond the greedy walk: %d\n", t.BeyondGreedy())
	if errs := t.GateErrors(); len(errs) > 0 {
		fmt.Fprintf(w, "gate violations: %d\n", len(errs))
		for _, e := range errs {
			fmt.Fprintf(w, "  %s\n", e)
		}
	} else {
		fmt.Fprintf(w, "gate violations: 0\n")
	}
}

// Render returns the text report as a string.
func (t *ExploreTable) Render() string {
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}

// exploreTrace explores one decoded trace and gates it against the
// dynamic detector, the greedy confirmation walk and the predictions.
func exploreTrace(h tracefile.Header, ops []tracefile.Op, maxSchedules int) (ExploreRow, error) {
	row := ExploreRow{Bench: h.Benchmark, Ops: len(ops)}

	// Oracle sets: dynamic tuples on the recorded schedule, and
	// greedy-confirmable predictions.
	observed, err := predict.Observe(h, ops, nil)
	if err != nil {
		return row, err
	}
	pres, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		return row, err
	}
	greedy := map[predict.Tuple]bool{}
	for _, p := range pres.Predictions {
		conf, err := predict.Confirm(h, ops, p, observed)
		if err != nil {
			return row, err
		}
		if conf != predict.Unconfirmed {
			greedy[p.Tuple()] = true
		}
	}
	row.Dynamic = len(observed)
	row.GreedyConfirmed = len(greedy)

	v, err := explore.Explore(h, ops, explore.Options{
		MaxSchedules: maxSchedules,
		Jobs:         1, // rows are already parallel; keep each job single-threaded
		Seeds:        pres.Predictions,
	})
	if err != nil {
		return row, err
	}
	row.Explored, row.Pruned, row.BoundedOut = v.Explored, v.Pruned, v.BoundedOut
	row.Seeded, row.Exhaustive = v.Seeded, v.Exhaustive

	covered := map[predict.Tuple]bool{}
	for _, f := range v.Races {
		t := f.Tuple()
		covered[t] = true
		row.Races = append(row.Races, t.String())
		if !f.WitnessOK {
			row.WitnessFailures++
		}
		if !observed[t] && !greedy[t] {
			row.BeyondGreedy++
		}
		if !pres.Covers(t.Alloc, t.Kind) {
			row.MissedPredicted = append(row.MissedPredicted, t.String())
		}
	}
	for _, t := range predict.SortedTuples(observed) {
		if !covered[t] {
			row.MissedDynamic = append(row.MissedDynamic, t.String())
		}
	}
	for _, t := range predict.SortedTuples(greedy) {
		if !covered[t] {
			row.MissedGreedy = append(row.MissedGreedy, t.String())
		}
	}
	return row, nil
}

// exploreConfig records one configuration (the masked example is built
// as a trace) and explores it.
func exploreConfig(c suiteConfig, maxSchedules int) (ExploreRow, error) {
	var (
		h   tracefile.Header
		ops []tracefile.Op
		err error
	)
	if c.kind == maskedEx {
		h, ops = explore.MaskedRaceExample()
	} else if h, ops, _, err = c.record(); err != nil {
		return ExploreRow{}, err
	}
	row, err := exploreTrace(h, ops, maxSchedules)
	if err != nil {
		return ExploreRow{}, err
	}
	row.Injection = c.inj
	row.ExpectRacey = c.racey
	return row, nil
}

// exploreRows explores the given configurations on the worker pool.
func exploreRows(opt Options, configs []suiteConfig, maxSchedules int) ([]ExploreRow, error) {
	return runConfigs(opt, "explore", configs, func(c suiteConfig) (ExploreRow, error) {
		return exploreConfig(c, maxSchedules)
	})
}

// RunExploreSuite explores every app injection, every base micro, and
// the masked-race example on the worker pool. maxSchedules bounds each
// row's DFS (0 = 64); the superset-of-greedy gate is budget-independent
// because every prediction seeds the explorer. Rows land in
// order-indexed slots, so the table is byte-identical at any Jobs.
func RunExploreSuite(opt Options, maxSchedules int) (*ExploreTable, error) {
	if maxSchedules <= 0 {
		maxSchedules = 64
	}
	rows, err := exploreRows(opt, append(injectedAndMicros(), maskedConfig()), maxSchedules)
	if err != nil {
		return nil, err
	}
	return &ExploreTable{Rows: rows}, nil
}
