package replay

import "scord/internal/tracefile"

// PerturbTarget searches for a legality-preserving reordering of ops
// that makes the pair (i, j) adjacent, i < j: it greedily walks op j
// backward and op i forward through legal adjacent swaps (Swappable, so
// program order, fences, barriers, kernel boundaries and same-word
// synchronization are all respected) until the two meet or neither can
// move. It returns the reordering as a permutation perm of op indices
// (ops[perm[k]] is the schedule's k-th op, as RunOpsPermuted replays
// it), the pair's new positions, and whether adjacency was reached.
//
// The predict confirmation gate uses this to turn a predicted-race
// witness (two trace offsets) into a concrete alternative schedule: if
// the pair can be made adjacent, no third access can overwrite the
// detector's per-word metadata between them, so replaying the perturbed
// schedule forces the dynamic detector to judge exactly the predicted
// pair.
//
// PerturbTarget is deterministic and never modifies ops.
func PerturbTarget(ops []tracefile.Op, i, j int) ([]int32, int, int, bool) {
	if i < 0 || j >= len(ops) || i >= j {
		return nil, 0, 0, false
	}
	perm := make([]int32, len(ops))
	for k := range perm {
		perm[k] = int32(k)
	}
	swappable := func(a int) bool { return Swappable(ops[perm[a]], ops[perm[a+1]]) }
	for {
		moved := false
		for j > i+1 && swappable(j-1) {
			perm[j-1], perm[j] = perm[j], perm[j-1]
			j--
			moved = true
		}
		for j > i+1 && swappable(i) {
			perm[i], perm[i+1] = perm[i+1], perm[i]
			i++
			moved = true
		}
		if j == i+1 || !moved {
			return perm, i, j, j == i+1
		}
	}
}

// Schedule materializes a permutation of ops as an op slice: its k-th op
// is ops[perm[k]].
func Schedule(ops []tracefile.Op, perm []int32) []tracefile.Op {
	out := make([]tracefile.Op, len(perm))
	for k, p := range perm {
		out[k] = ops[p]
	}
	return out
}
