package explore

import (
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/tracefile"
)

// MaskedRaceExample builds an in-memory trace carrying a scoped race
// that systematic exploration finds but the greedy witness walk
// provably cannot: the canonical ICS/overlapping-locks shape.
//
// Three warps store to one word W under overlapping lock sets —
// A = w0{L}, B = w1{L,M}, C = w2{M} — recorded in the order A, B, C.
// Adjacent pairs share a lock, so the recorded schedule is race-free
// and the detector's lockset check passes B against A and C against B.
// The pair (A, C) holds no common lock: any schedule that removes B
// from between them (every W-order except A,B,C and C,B,A) exposes a
// missing-lock store race.
//
// The race is masked from local search three ways:
//
//   - PerturbTarget(A, C): A's next op is a same-warp store (the wall
//     Y), C's previous op is a same-warp store (the wall X) — neither
//     endpoint can take a single legal step, so the walk fails
//     immediately.
//   - predict suppresses (A, B) and (B, C): each pair shares a lock, so
//     (A, C) is the only prediction — there is no other witness pair a
//     greedy confirmation could ride.
//   - Distance: 400 independent single-word filler stores sit in each
//     of the gaps A..B and B..C. Exposing the race needs B out from
//     between A and C, i.e. inverting a pair whose recorded gap is 401
//     ops, so every racy schedule is at least 402 adjacent swaps (Kendall
//     tau distance) from the recorded one: no walk of fewer legal swaps
//     reaches a racy schedule.
//
// The explorer's singleton persistent-set rule drains the 800 fillers
// without branching, leaving exactly the six orderings of {A, B, C}:
// six schedules, four of which expose m.data/missing-lock-store.
//
// The trace replays cleanly in any detector mode (the lock acquisitions
// are real CAS+fence sequences), and its base addresses are the bump
// allocator's, so replay's allocation validation passes.
func MaskedRaceExample() (tracefile.Header, []tracefile.Op) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	h := tracefile.NewHeader("explore.masked", nil, cfg)

	// Mirror replay's deterministic bump allocator for the Base fields.
	mm := mem.New(uint64(cfg.DeviceMemBytes))
	const fillersPerGap = 400
	locksBase := mm.Alloc("m.locks", 2*mem.WordBytes)
	dataBase := mm.Alloc("m.data", uint64(3+2*fillersPerGap)*mem.WordBytes)
	lockL := uint64(locksBase)
	lockM := uint64(locksBase) + mem.WordBytes
	wordW := uint64(dataBase)
	wallY := uint64(dataBase) + 1*mem.WordBytes
	wallX := uint64(dataBase) + 2*mem.WordBytes
	fillerWord := func(i int) uint64 { return uint64(dataBase) + uint64(3+i)*mem.WordBytes }

	store := func(warp int, addr uint64) tracefile.Op {
		return tracefile.Op{
			Kind: tracefile.OpAccess,
			Access: core.Access{
				Kind: core.KindStore,
				Addr: addr,
				Warp: warp,
			},
			Size: mem.WordBytes,
		}
	}
	cas := func(warp int, addr uint64) tracefile.Op {
		return tracefile.Op{
			Kind: tracefile.OpAccess,
			Access: core.Access{
				Kind:   core.KindAtomic,
				Scope:  core.ScopeDevice,
				Strong: true,
				Addr:   addr,
				Warp:   warp,
			},
			AtomicOp: core.AtomicCAS,
			Size:     mem.WordBytes,
		}
	}
	fence := func(warp int) tracefile.Op {
		return tracefile.Op{Kind: tracefile.OpFence, Warp: warp, Scope: core.ScopeDevice}
	}

	ops := []tracefile.Op{
		{Kind: tracefile.OpAlloc, Name: "m.locks", Base: uint64(locksBase), Bytes: 2 * mem.WordBytes},
		{Kind: tracefile.OpAlloc, Name: "m.data", Base: uint64(dataBase), Bytes: uint64(3+2*fillersPerGap) * mem.WordBytes},
		{Kind: tracefile.OpKernel, Name: "masked", Blocks: 1, Threads: 11 * 32},
	}
	// Lock acquisition: CAS then a device fence activates the lock-table
	// entry, so the subsequent stores carry the blooms above.
	ops = append(ops, cas(0, lockL), cas(1, lockL), cas(1, lockM), cas(2, lockM))
	ops = append(ops, fence(0), fence(1), fence(2))

	// Contested segment. Fillers run on warps 3..10, 100 stores each per
	// gap, every one to a private word.
	filler := 0
	gap := func() {
		for w := 0; w < 8; w++ {
			for k := 0; k < fillersPerGap/8; k++ {
				ops = append(ops, store(3+w, fillerWord(filler)))
				filler++
			}
		}
	}
	ops = append(ops, store(0, wordW)) // A, bloom {L}
	ops = append(ops, store(0, wallY)) // wall: pins A's forward walk
	gap()
	ops = append(ops, store(1, wordW)) // B, bloom {L, M}
	gap()
	ops = append(ops, store(2, wallX)) // wall: pins C's backward walk
	ops = append(ops, store(2, wordW)) // C, bloom {M}
	ops = append(ops, tracefile.Op{Kind: tracefile.OpKernelEnd, Name: "masked"})
	return h, ops
}
