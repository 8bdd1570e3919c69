package repair_test

import (
	"testing"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/analysis/repair"
	"scord/internal/core"
)

// TestRepairSearcherWidensWorklist: on the masked-race example the
// recorded schedule is race-free and the greedy walk cannot confirm the
// prediction, so legacy repair sees nothing to do. With an explorer
// Searcher the confirmation gate reaches the race and repair must at
// least put it on the worklist (whether a vocabulary edit can fix it is
// the oracles' business — what matters here is that the target is no
// longer invisible).
func TestRepairSearcherWidensWorklist(t *testing.T) {
	h, ops := explore.MaskedRaceExample()
	target := predict.Tuple{Alloc: "m.data", Kind: core.RaceMissingLockStore}

	legacy := &repair.Repairer{Bench: h.Benchmark, Header: h, Ops: ops}
	rep, err := legacy.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FullyRepaired || len(rep.Outcomes) != 0 {
		t.Fatalf("legacy repair saw the masked race (outcomes=%d); the mask is broken", len(rep.Outcomes))
	}

	upgraded := &repair.Repairer{Bench: h.Benchmark, Header: h, Ops: ops, Searcher: &explore.Searcher{}}
	rep, err = upgraded.RepairAll()
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, out := range rep.Outcomes {
		if out.Target == target {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("explorer-backed repair never targeted %v; outcomes: %+v", target, rep.Outcomes)
	}
}
