package repair

import (
	"fmt"

	"scord/internal/analysis/predict"
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// Evidence is the verification record attached to every accepted repair:
// what each oracle established. ReplayClean, PerturbClean and
// SiblingsClean all had to hold.
type Evidence struct {
	// ReplayClean: the recorded schedule, replayed through the patched
	// semantics by the real ScoRD model, no longer reports the target and
	// reports no race it did not already report.
	ReplayClean bool `json:"replay_clean"`
	// PredictKilled: the predictive analysis over the patched trace no
	// longer predicts the target tuple at all.
	PredictKilled bool `json:"predict_killed"`
	// PerturbClean: every prediction still standing on the patched trace
	// that matches the target or is new failed to confirm — its
	// PerturbTarget witness schedule, replayed through the patched
	// semantics, stays race-free.
	PerturbClean bool `json:"perturb_clean"`
	// SiblingsClean: the edit, applied to every sibling trace of the
	// benchmark (other configurations of the same program), introduced no
	// race there either.
	SiblingsClean bool `json:"siblings_clean"`
	// OpsTouched and OpsInserted quantify the fix's overhead on the
	// recorded trace.
	OpsTouched  int `json:"ops_touched"`
	OpsInserted int `json:"ops_inserted"`
}

// dynamicTuples replays ops through the real detector and returns the
// reported (allocation, kind) tuples.
func dynamicTuples(h tracefile.Header, ops []tracefile.Op) (map[Target]bool, error) {
	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		return nil, err
	}
	res, err := replay.RunOps(h, ops, sc)
	if err != nil {
		return nil, err
	}
	out := map[Target]bool{}
	for _, rec := range res.Races {
		if al, ok := res.Mem.Locate(mem.Addr(rec.Addr)); ok {
			out[Target{Alloc: al.Name, Kind: rec.Kind}] = true
		}
	}
	return out, nil
}

func toObserved(dyn map[Target]bool) map[predict.Tuple]bool {
	out := make(map[predict.Tuple]bool, len(dyn))
	for t := range dyn {
		out[predict.Tuple{Alloc: t.Alloc, Kind: t.Kind}] = true
	}
	return out
}

// state is the per-iteration snapshot of the current trace's races: what
// the detector observes and what the predictor predicts.
type state struct {
	dyn        map[Target]bool
	observed   map[predict.Tuple]bool
	pred       *predict.Result
	predTuples map[Target]bool
}

func (r *Repairer) computeState() (*state, error) {
	st := &state{}
	var err error
	if st.dyn, err = dynamicTuples(r.Header, r.Ops); err != nil {
		return nil, err
	}
	st.observed = toObserved(st.dyn)
	if st.pred, err = predict.Run(r.Header, r.Ops, predict.Options{}); err != nil {
		return nil, err
	}
	st.predTuples = map[Target]bool{}
	for _, t := range st.pred.Tuples() {
		st.predTuples[Target{Alloc: t.Alloc, Kind: t.Kind}] = true
	}
	return st, nil
}

// verify runs a candidate through every oracle. ok reports acceptance;
// on rejection, reason says which oracle vetoed and why.
func (r *Repairer) verify(st *state, target Target, e Edit) (pops []tracefile.Op, ev Evidence, ok bool, reason string) {
	pops, stats, err := ApplyTrace(e, r.Ops)
	if err != nil {
		return nil, ev, false, err.Error()
	}
	ev.OpsTouched, ev.OpsInserted = stats.Touched, stats.Inserted

	// Oracle 1 — dynamic replay: the patched recorded schedule must drop
	// the target and introduce nothing.
	pdyn, err := dynamicTuples(r.Header, pops)
	if err != nil {
		return nil, ev, false, fmt.Sprintf("replay failed: %v", err)
	}
	if pdyn[target] {
		return nil, ev, false, "replay still reports the target race"
	}
	for _, t := range sortedTargets(pdyn) {
		if !st.dyn[t] {
			return nil, ev, false, fmt.Sprintf("replay reports new race %s", t)
		}
	}
	ev.ReplayClean = true

	// Oracle 2 — predictive re-analysis with perturbed witness schedules:
	// no legal reordering of the patched trace may reach the target, and
	// no new predicted race may be confirmable.
	pr, err := predict.Run(r.Header, pops, predict.Options{})
	if err != nil {
		return nil, ev, false, fmt.Sprintf("predictive analysis failed: %v", err)
	}
	pobserved := toObserved(pdyn)
	ev.PredictKilled = true
	for _, p := range pr.Predictions {
		t := Target{Alloc: p.Alloc, Kind: p.Record.Kind}
		if t == target {
			ev.PredictKilled = false
		}
		if t != target && st.predTuples[t] {
			continue // pre-existing prediction, unrelated to this repair
		}
		conf, err := predict.ConfirmWith(r.Header, pops, p, pobserved, predict.ConfirmOptions{Searcher: r.Searcher})
		if err != nil {
			return nil, ev, false, fmt.Sprintf("witness confirmation failed: %v", err)
		}
		if conf != predict.Unconfirmed {
			if t == target {
				return nil, ev, false, fmt.Sprintf("target race still reachable (%s witness schedule)", conf)
			}
			return nil, ev, false, fmt.Sprintf("new prediction %s confirmed (%s)", t, conf)
		}
	}
	ev.PerturbClean = true

	// Oracle 1b — sibling traces: the same edit, applied to the
	// benchmark's other recorded configurations, must not regress them.
	for _, sib := range r.Siblings {
		sops, _, serr := ApplyTrace(e, sib.Ops)
		if serr != nil {
			continue // edit matches nothing there: trace unchanged
		}
		sdyn, err := dynamicTuples(sib.Header, sops)
		if err != nil {
			return nil, ev, false, fmt.Sprintf("sibling %s replay failed: %v", sib.Label, err)
		}
		base := r.sibBase[sib.Label]
		for _, t := range sortedTargets(sdyn) {
			if !base[t] {
				return nil, ev, false, fmt.Sprintf("sibling %s gains race %s", sib.Label, t)
			}
		}
	}
	ev.SiblingsClean = true

	return pops, ev, true, ""
}
