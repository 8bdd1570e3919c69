package repair

import (
	"sort"

	"scord/internal/analysis/fix"
	"scord/internal/analysis/predict"
	"scord/internal/core"
	"scord/internal/tracefile"
)

// Candidates enumerates the candidate edits for a target in increasing
// cost order (the fix vocabulary's lattice). ops is the current trace
// and pred the predictive result over it; the barrier candidate needs a
// witness to site the insertion. An empty return means the target's
// kind is not repairable by any edit in the vocabulary (diverged-warp
// races need a re-convergence restructuring no local edit expresses).
func Candidates(t predict.Tuple, ops []tracefile.Op, pred *predict.Result) []Edit {
	switch t.Kind {
	case core.RaceScopedAtomic:
		return []Edit{{Kind: fix.PromoteScope, Alloc: t.Alloc}}
	case core.RaceMissingDeviceFence:
		return []Edit{
			{Kind: fix.StrengthenFence, Alloc: t.Alloc},
			{Kind: fix.InsertFence, Alloc: t.Alloc, Scope: core.ScopeDevice},
			{Kind: fix.DemoteAtomic, Alloc: t.Alloc},
		}
	case core.RaceMissingBlockFence:
		edits := []Edit{{Kind: fix.InsertFence, Alloc: t.Alloc, Scope: core.ScopeBlock}}
		if b, ok := barrierCandidate(t, ops, pred); ok {
			edits = append(edits, b)
		}
		return append(edits, Edit{Kind: fix.DemoteAtomic, Alloc: t.Alloc})
	case core.RaceNotStrong:
		return []Edit{{Kind: fix.DemoteAtomic, Alloc: t.Alloc}}
	case core.RaceMissingLockLoad, core.RaceMissingLockStore:
		return []Edit{
			{Kind: fix.StrengthenFence, Alloc: t.Alloc},
			{Kind: fix.InsertFence, Alloc: t.Alloc, Scope: core.ScopeDevice, AfterCAS: true},
			{Kind: fix.DemoteAtomic, Alloc: t.Alloc},
		}
	default: // RaceDivergedWarp and anything unknown.
		return nil
	}
}

// barrierCandidate derives the barrier-insertion edit from the first
// predictive witness matching the target: the insertion point is the
// program point of the witness's current access, expressed as the set
// of sites its block executes from that access onward (within the
// witness's kernel segment). Site-anchored placement keeps the edit
// meaningful on every schedule, not just the recorded interleaving.
func barrierCandidate(t predict.Tuple, ops []tracefile.Op, pred *predict.Result) (Edit, bool) {
	if pred == nil {
		return Edit{}, false
	}
	for _, p := range pred.Predictions {
		if p.Alloc != t.Alloc || p.Record.Kind != t.Kind {
			continue
		}
		w := p.Witness
		if w.Cur < 0 || w.Cur >= len(ops) || ops[w.Cur].Kind != tracefile.OpAccess {
			continue
		}
		cur := ops[w.Cur].Access
		curSet := map[string]bool{}
		for i := w.Cur; i < len(ops); i++ {
			op := ops[i]
			if op.Kind == tracefile.OpKernel || op.Kind == tracefile.OpKernelEnd {
				break
			}
			if op.Kind == tracefile.OpAccess && op.Access.Block == cur.Block && op.Access.Site != "" {
				curSet[op.Access.Site] = true
			}
		}
		if len(curSet) == 0 {
			continue
		}
		var curSites []string
		for s := range curSet {
			curSites = append(curSites, s)
		}
		sort.Strings(curSites)
		return Edit{Kind: fix.InsertBarrier, Alloc: t.Alloc, CurSites: curSites, Sites: curSites}, true
	}
	return Edit{}, false
}
