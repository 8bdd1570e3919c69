// Package repair synthesizes minimal-cost fixes for confirmed scoped
// races. Given a recorded SCTR trace of a racy benchmark, it enumerates
// candidate edits over the shared fix vocabulary in increasing cost
// order — scope promotion, fence strengthening, fence insertion, barrier
// insertion, weak-to-atomic demotion — and accepts the first candidate
// that survives two independent oracles:
//
//  1. the recorded schedule, replayed through the patched semantics by
//     the real ScoRD detector model, must drop the target race and gain
//     none, and sibling traces of the same benchmark must not regress;
//  2. the sound predictive analysis over the patched trace must no
//     longer reach the target in any legal reordering — every surviving
//     or new prediction is attacked with a PerturbTarget witness
//     schedule and must stay unconfirmed.
//
// Repair is a pure function of the trace (and its siblings): it needs
// neither the benchmark source nor a Go toolchain.
//
// Repair iterates: after an edit is accepted the trace state is
// recomputed and the next remaining confirmed race is attacked, so one
// benchmark ends fully repaired, partially repaired with a residual
// list, or unrepairable (diverged-warp races have no local edit).
package repair

import (
	"fmt"
	"sort"

	"scord/internal/analysis/fix"
	"scord/internal/analysis/predict"
	"scord/internal/tracefile"
)

// Sibling is another recorded trace of the same benchmark (typically
// the uninjected base configuration), used as a regression oracle: an
// accepted edit must not introduce races there.
type Sibling struct {
	Label  string
	Header tracefile.Header
	Ops    []tracefile.Op
}

// Repairer holds one benchmark's repair session. Bench labels the
// report.
type Repairer struct {
	Bench    string
	Header   tracefile.Header
	Ops      []tracefile.Op
	Siblings []Sibling
	// Searcher, when non-nil, upgrades both confirmation legs from the
	// greedy PerturbTarget walk to systematic schedule exploration
	// (normally an *explore.Searcher): the worklist gains races only
	// exploration can reach, and Oracle 2 attacks surviving predictions
	// with the full bounded search instead of a single witness schedule.
	// nil preserves the legacy greedy behavior exactly.
	Searcher predict.Searcher

	sibBase map[string]map[Target]bool
}

// Outcome records the repair attempt for one target.
type Outcome struct {
	Target   Target    `json:"target"`
	Repaired bool      `json:"repaired"`
	Fix      *fix.Fix  `json:"fix,omitempty"`
	Evidence *Evidence `json:"evidence,omitempty"`
	// Reason explains an unrepaired target; Rejected lists the vetoed
	// cheaper candidates (for a repaired target, the ones below the
	// accepted fix in the cost order).
	Reason   string   `json:"reason,omitempty"`
	Rejected []string `json:"rejected,omitempty"`
}

// Report is the result of RepairAll.
type Report struct {
	Bench    string    `json:"bench"`
	Outcomes []Outcome `json:"outcomes"`
	// FullyRepaired: no confirmed race remains on the final trace.
	FullyRepaired bool `json:"fully_repaired"`
	// Residual lists the confirmed races still standing.
	Residual []Target `json:"residual,omitempty"`
	// OpsTouched and OpsInserted sum the accepted fixes' overhead.
	OpsTouched  int `json:"ops_touched"`
	OpsInserted int `json:"ops_inserted"`
}

// confirmedTargets is the repair worklist: every tuple the detector
// observes on the current schedule, plus every prediction confirmed by a
// perturbed witness schedule. Predictions falling outside any recorded
// allocation cannot anchor an edit and are excluded.
func (r *Repairer) confirmedTargets(st *state) ([]Target, error) {
	set := map[Target]bool{}
	for t := range st.dyn {
		set[t] = true
	}
	for _, p := range st.pred.Predictions {
		t := Target{Alloc: p.Alloc, Kind: p.Record.Kind}
		if p.Alloc == "" || set[t] {
			continue
		}
		conf, err := predict.ConfirmWith(r.Header, r.Ops, p, st.observed, predict.ConfirmOptions{Searcher: r.Searcher})
		if err != nil {
			return nil, err
		}
		if conf != predict.Unconfirmed {
			set[t] = true
		}
	}
	return sortedTargets(set), nil
}

// sortedTargets lists a target set in (Alloc, Kind) order, so the
// worklist and every veto reason that names a target are independent of
// map iteration order.
func sortedTargets(set map[Target]bool) []Target {
	out := make([]Target, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Alloc != out[j].Alloc {
			return out[i].Alloc < out[j].Alloc
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// maxIterations bounds the repair loop far above any real worklist
// (targets are bounded by allocations × race kinds).
const maxIterations = 64

// RepairAll repairs every confirmed race it can, cheapest verified fix
// first, recomputing the race state after each accepted edit. The
// Repairer's Ops advance to the patched trace as fixes land.
func (r *Repairer) RepairAll() (*Report, error) {
	rep := &Report{Bench: r.Bench}
	if err := r.initSiblingBase(); err != nil {
		return nil, err
	}
	failed := map[Target]bool{}
	for iter := 0; iter < maxIterations; iter++ {
		st, err := r.computeState()
		if err != nil {
			return nil, err
		}
		targets, err := r.confirmedTargets(st)
		if err != nil {
			return nil, err
		}
		next, found := Target{}, false
		for _, t := range targets {
			if !failed[t] {
				next, found = t, true
				break
			}
		}
		if !found {
			rep.Residual = targets
			rep.FullyRepaired = len(targets) == 0
			return rep, nil
		}
		out := Outcome{Target: next}
		cands := Candidates(next, r.Ops, st.pred)
		for _, e := range cands {
			pops, ev, ok, reason := r.verify(st, next, e)
			if !ok {
				out.Rejected = append(out.Rejected, fmt.Sprintf("%s: %s", e.Kind, reason))
				continue
			}
			r.Ops = pops
			f := e.Fix()
			out.Repaired, out.Fix, out.Evidence = true, &f, &ev
			rep.OpsTouched += ev.OpsTouched
			rep.OpsInserted += ev.OpsInserted
			break
		}
		if !out.Repaired {
			if len(cands) == 0 {
				out.Reason = "no candidate edit repairs this race kind"
			} else {
				out.Reason = "every candidate was vetoed by an oracle"
			}
			failed[next] = true
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	return nil, fmt.Errorf("repair: %s did not converge after %d iterations", r.Bench, maxIterations)
}

// initSiblingBase records each sibling's baseline race tuples once.
func (r *Repairer) initSiblingBase() error {
	if r.sibBase != nil {
		return nil
	}
	r.sibBase = map[string]map[Target]bool{}
	for _, sib := range r.Siblings {
		dyn, err := dynamicTuples(sib.Header, sib.Ops)
		if err != nil {
			return fmt.Errorf("sibling %s: %w", sib.Label, err)
		}
		r.sibBase[sib.Label] = dyn
	}
	return nil
}
