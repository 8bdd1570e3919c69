package replay

import "scord/internal/tracefile"

// PerturbTarget searches for a legality-preserving reordering of ops
// that makes the pair (i, j) adjacent, i < j: it greedily walks op j
// backward and op i forward through legal adjacent swaps (Swappable, so
// program order, fences, barriers, kernel boundaries and same-word
// synchronization are all respected) until the two meet or neither can
// move. It returns the perturbed
// schedule, the pair's new positions, and whether adjacency was reached.
//
// The predict confirmation gate uses this to turn a predicted-race
// witness (two trace offsets) into a concrete alternative schedule: if
// the pair can be made adjacent, no third access can overwrite the
// detector's per-word metadata between them, so replaying the perturbed
// trace forces the dynamic detector to judge exactly the predicted pair.
//
// PerturbTarget is deterministic and never modifies ops.
func PerturbTarget(ops []tracefile.Op, i, j int) ([]tracefile.Op, int, int, bool) {
	if i < 0 || j >= len(ops) || i >= j {
		return nil, 0, 0, false
	}
	out := make([]tracefile.Op, len(ops))
	copy(out, ops)
	for {
		moved := false
		for j > i+1 && Swappable(out[j-1], out[j]) {
			out[j-1], out[j] = out[j], out[j-1]
			j--
			moved = true
		}
		for j > i+1 && Swappable(out[i], out[i+1]) {
			out[i], out[i+1] = out[i+1], out[i]
			i++
			moved = true
		}
		if j == i+1 || !moved {
			return out, i, j, j == i+1
		}
	}
}
