package replay

import (
	"fmt"

	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/tracefile"
)

// This file is the single home of the schedule-legality rules every
// reordering consumer shares: PerturbTarget's greedy witness search and
// the exhaustive explorer (internal/analysis/explore). A legal alternative schedule is one
// reachable from the recorded order by adjacent swaps that Swappable
// permits; CheckSchedule verifies the equivalent closed-form
// characterization, so generators and checkers cannot drift apart.

// Swappable reports whether two adjacent ops may legally exchange
// places. A swap is legal only between two access ops from different
// warps — so program order within a warp is preserved and no op ever
// crosses a fence, barrier, kernel boundary or allocation — and never
// between two accesses of the same word when either is a
// synchronization access (reordering a synchronization access against
// its observer would fabricate an interleaving the program's own
// synchronization forbids, not explore a reachable one).
func Swappable(x, y tracefile.Op) bool {
	if x.Kind != tracefile.OpAccess || y.Kind != tracefile.OpAccess {
		return false
	}
	a, b := x.Access, y.Access
	if a.Block == b.Block && a.Warp == b.Warp {
		return false // program order within a warp is inviolable
	}
	if sameWord(x, y) && (Syncish(x) || Syncish(y)) {
		return false
	}
	return true
}

// Syncish reports whether an access op participates in synchronization:
// any atomic instruction kind, or any non-trivial RMW flavour. The
// relative order of two same-word accesses is pinned when either is
// syncish, because that order is what the program's synchronization
// established.
func Syncish(op tracefile.Op) bool {
	return op.AtomicOp != core.AtomicOther || op.Access.Kind == core.KindAtomic
}

func sameWord(x, y tracefile.Op) bool {
	return x.Access.Addr/mem.WordBytes == y.Access.Addr/mem.WordBytes
}

// CheckSchedule verifies that sched is a legal reordering of orig: a
// permutation reachable from orig by a sequence of Swappable adjacent
// exchanges. The closed form it checks is equivalent: non-access ops
// are pinned at their original positions (splitting the trace into
// segments of access ops), and within each segment every order-fixed
// pair — two accesses of one warp, or two same-word accesses where
// either is syncish — keeps its original relative order. It returns nil
// for a legal schedule and an error naming the first violated
// constraint otherwise.
func CheckSchedule(orig, sched []tracefile.Op) error {
	if len(orig) != len(sched) {
		return fmt.Errorf("schedule has %d ops, original has %d", len(sched), len(orig))
	}
	segStart := 0
	for i := range orig {
		if orig[i].Kind == tracefile.OpAccess {
			continue
		}
		if sched[i] != orig[i] {
			return fmt.Errorf("non-access op pinned at %d changed: recorded %v, schedule %v",
				i, orig[i].Kind, sched[i].Kind)
		}
		if err := checkSegment(orig, sched, segStart, i); err != nil {
			return err
		}
		segStart = i + 1
	}
	return checkSegment(orig, sched, segStart, len(orig))
}

// checkSegment verifies one access-op segment [start, end): sched's
// slice must be a warp-order-preserving, sync-order-preserving
// permutation of orig's.
func checkSegment(orig, sched []tracefile.Op, start, end int) error {
	if start >= end {
		return nil
	}
	for i := start; i < end; i++ {
		if sched[i].Kind != tracefile.OpAccess {
			return fmt.Errorf("op %d: schedule has %v where the segment [%d,%d) holds only accesses",
				i, sched[i].Kind, start, end)
		}
	}
	// Per-warp subsequences must match element-wise: that proves both
	// the program-order constraint and (together with equal segment
	// length) that sched's segment is a permutation of orig's, since
	// every access belongs to exactly one warp.
	type warpKey struct{ block, warp int }
	sub := func(ops []tracefile.Op) map[warpKey][]tracefile.Op {
		m := map[warpKey][]tracefile.Op{}
		for i := start; i < end; i++ {
			k := warpKey{ops[i].Access.Block, ops[i].Access.Warp}
			m[k] = append(m[k], ops[i])
		}
		return m
	}
	os, ss := sub(orig), sub(sched)
	if len(os) != len(ss) {
		return fmt.Errorf("segment [%d,%d): schedule has %d warps, original %d", start, end, len(ss), len(os))
	}
	for k, oseq := range os {
		sseq := ss[k]
		if len(oseq) != len(sseq) {
			return fmt.Errorf("segment [%d,%d): warp (b%d,w%d) has %d ops in schedule, %d in original",
				start, end, k.block, k.warp, len(sseq), len(oseq))
		}
		for i := range oseq {
			if oseq[i] != sseq[i] {
				return fmt.Errorf("segment [%d,%d): warp (b%d,w%d) op %d reordered against program order",
					start, end, k.block, k.warp, i)
			}
		}
	}
	// Order-fixed same-word pairs: the subsequence of a word's accesses
	// where either side of a pair is syncish must keep original order.
	// Equivalent check: per word, the syncish ops' order is fixed among
	// themselves AND against every plain access (a syncish op pins its
	// order against all same-word ops). So the subsequence of (position
	// of each op relative to the word's syncish ops) must match.
	oRank := wordSyncRanks(orig, start, end)
	sRank := wordSyncRanks(sched, start, end)
	for w, or := range oRank {
		sr := sRank[w]
		if len(or) != len(sr) {
			return fmt.Errorf("segment [%d,%d): word %#x access count drifted", start, end, w)
		}
		for op, cnt := range or {
			if sr[op] != cnt {
				return fmt.Errorf("segment [%d,%d): word %#x access crossed a synchronization access", start, end, w)
			}
		}
	}
	return nil
}

// wordSyncRanks maps each word in [start, end) to a multiset of
// (op value → count of syncish same-word ops preceding it, summed over
// occurrences). Two schedules agree on every order-fixed same-word pair
// iff these maps agree: a syncish/syncish or syncish/plain pair
// swapping changes how many syncish ops precede one of them.
func wordSyncRanks(ops []tracefile.Op, start, end int) map[uint64]map[opAt]int {
	out := map[uint64]map[opAt]int{}
	sync := map[uint64]int{}
	occ := map[uint64]map[tracefile.Op]int{}
	for i := start; i < end; i++ {
		w := ops[i].Access.Addr / mem.WordBytes
		m := out[w]
		if m == nil {
			m = map[opAt]int{}
			out[w] = m
			occ[w] = map[tracefile.Op]int{}
		}
		// Identical op values are interchangeable; disambiguate
		// duplicates by per-word occurrence index.
		k := opAt{ops[i], occ[w][ops[i]]}
		occ[w][ops[i]]++
		m[k] = sync[w]
		if Syncish(ops[i]) {
			sync[w]++
		}
	}
	return out
}

// opAt is one occurrence of an op value within a word's access
// sequence.
type opAt struct {
	op  tracefile.Op
	occ int
}
