package explore

import (
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/tracefile"
)

// DefaultSearchSchedules bounds a focused tuple search.
const DefaultSearchSchedules = 128

// Searcher implements predict.Searcher with a focused DPOR walk: the
// confirmation gate hands it a prediction the greedy PerturbTarget walk
// could not confirm, and it hunts for any legal schedule exposing the
// prediction's (alloc, kind) tuple. When the witness pair sits in one
// fence/barrier-free segment, branching is restricted to that segment —
// every other segment is scheduled in recorded order — which keeps the
// walk small without giving up the schedules that can reorder the pair.
// The search is sequential and deterministic; it stops at the first
// exposing schedule.
type Searcher struct {
	// MaxSchedules caps each walk (0 = DefaultSearchSchedules).
	MaxSchedules int
	// MaxDepth and MaxPreemptions bound branching as in Options.
	MaxDepth       int
	MaxPreemptions int
}

var _ predict.Searcher = (*Searcher)(nil)

// SearchTuple reports whether some legal reordering of ops makes the
// dynamic detector report p's (alloc, kind) tuple.
func (s *Searcher) SearchTuple(h tracefile.Header, ops []tracefile.Op, p predict.Prediction) (bool, error) {
	hh := h
	hh.Config = h.Config.WithDetector(config.ModeFull4B)
	m, err := buildModel(ops)
	if err != nil {
		return false, err
	}
	prev, cur := p.Witness.Prev, p.Witness.Cur
	if prev < 0 || cur < 0 || prev >= len(ops) || cur >= len(ops) {
		return false, nil
	}
	gopt := genOptions{
		maxSchedules: s.MaxSchedules,
		maxDepth:     s.MaxDepth,
		maxPreempt:   -1,
		branchRun:    -1,
	}
	if gopt.maxSchedules <= 0 {
		gopt.maxSchedules = DefaultSearchSchedules
	}
	if s.MaxPreemptions > 0 {
		gopt.maxPreempt = s.MaxPreemptions
	}
	// Focus on the witness pair's segment when it has one; a pair split
	// by an unrelated warp's fence needs cross-segment budget instead.
	if m.runOf[prev] == m.runOf[cur] {
		gopt.branchRun = int(m.runOf[prev])
	}
	found := false
	_, err = generate(m, gopt, func(idx int, path []int32) (bool, error) {
		got, err := predict.Observe(hh, ops, path)
		if err != nil {
			return true, err
		}
		found = got[p.Tuple()]
		return found, nil
	})
	if err != nil {
		return false, err
	}
	return found, nil
}
