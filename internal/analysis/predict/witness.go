package predict

import (
	"fmt"

	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/tracefile"
)

// Witness makes a prediction machine-checkable: the two trace offsets of
// the unordered conflicting pair, plus the synchronization state that
// fails to order them. CheckWitness re-derives every claim from the raw
// op stream, independently of the streaming analysis.
type Witness struct {
	// Prev and Cur are absolute op indices into the trace (record order,
	// counting every op kind), Prev < Cur.
	Prev, Cur int

	Kind      core.RaceKind
	Word      uint64 // word-aligned address of the conflict
	SameBlock bool

	// Barrier phases of the accesses' blocks at each access. Equal
	// phases on the same block mean no barrier separates the pair.
	PrevPhase, CurPhase uint64

	// Fence-file IDs of the previous thread's warp: at its access, and
	// when the current access checked. Equal IDs mean no ordering fence
	// intervened (Table IV (a)/(b)).
	PrevBlkFence, PrevDevFence uint8
	BlkFenceNow, DevFenceNow   uint8

	// Lock blooms each side held; disjoint blooms mean no common lock
	// (Table IV (e)/(f)).
	PrevBloom, CurBloom uint16

	// Strength evidence for not-strong races (Table IV (c)).
	WordAllStrong bool
	CurStrong     bool
}

func (w Witness) String() string {
	return fmt.Sprintf("ops[%d]~ops[%d] %s word=%#x phase=%d/%d fence=(%d,%d)->(%d,%d) bloom=%04x/%04x",
		w.Prev, w.Cur, w.Kind, w.Word, w.PrevPhase, w.CurPhase,
		w.PrevBlkFence, w.PrevDevFence, w.BlkFenceNow, w.DevFenceNow,
		w.PrevBloom, w.CurBloom)
}

// witnessReplay rescans a trace prefix, tracking barrier phases, the
// fence file, and one lock table per warp — the same automata the
// analysis streams through, re-derived from scratch.
type witnessReplay struct {
	ff     core.FenceFile
	locks  map[[2]int]*core.LockTable
	phases map[int]uint64
	acqrel bool
}

func newWitnessReplay(acqrel bool) *witnessReplay {
	return &witnessReplay{
		locks:  map[[2]int]*core.LockTable{},
		phases: map[int]uint64{},
		acqrel: acqrel,
	}
}

// lockTable returns a warp's lock table, or nil while the warp has made
// no CAS this kernel: an empty table, which fences, Exch and releases
// leave empty.
func (r *witnessReplay) lockTable(block, warp int) *core.LockTable {
	return r.locks[[2]int{block, warp}]
}

// onFence applies a fence to the warp's lock table, if it has one.
func (r *witnessReplay) onFence(block, warp int, scope core.Scope) {
	if lt := r.lockTable(block, warp); lt != nil {
		lt.OnFence(scope)
	}
}

// summary is the warp's lock bloom: empty while it has no table.
func (r *witnessReplay) summary(block, warp int) core.Bloom {
	if lt := r.lockTable(block, warp); lt != nil {
		return lt.Summary()
	}
	return 0
}

func (r *witnessReplay) reset() {
	r.ff.Reset()
	r.locks = map[[2]int]*core.LockTable{}
	r.phases = map[int]uint64{}
}

// preAccess applies the effects that precede the detector's check
// (release semantics); postAccess applies the rest.
func (r *witnessReplay) preAccess(op *tracefile.Op) {
	acc := op.Access
	if op.AtomicOp == core.AtomicRelease && r.acqrel {
		r.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
		if lt := r.lockTable(acc.Block, acc.Warp); lt != nil {
			lt.OnFence(acc.Scope)
			lt.OnExch(acc.Addr, acc.Scope)
		}
	}
}

func (r *witnessReplay) postAccess(op *tracefile.Op) {
	acc := op.Access
	switch op.AtomicOp {
	case core.AtomicCAS:
		k := [2]int{acc.Block, acc.Warp}
		lt := r.locks[k]
		if lt == nil {
			lt = &core.LockTable{}
			r.locks[k] = lt
		}
		lt.OnCAS(acc.Addr, acc.Scope)
	case core.AtomicExch:
		if lt := r.lockTable(acc.Block, acc.Warp); lt != nil {
			lt.OnExch(acc.Addr, acc.Scope)
		}
	case core.AtomicAcquire:
		if r.acqrel {
			r.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
			r.onFence(acc.Block, acc.Warp, acc.Scope)
		}
	}
}

// CheckWitness verifies a witness against the raw op stream: both offsets
// are conflicting accesses of the witness word by different threads in
// the same kernel instance, and the claimed ordering failure holds when
// re-derived from scratch (barrier phases recounted, fence and lock
// automata replayed). It returns an error describing the first claim
// that does not hold.
func CheckWitness(h tracefile.Header, ops []tracefile.Op, w Witness) error {
	if w.Prev < 0 || w.Cur <= w.Prev || w.Cur >= len(ops) {
		return fmt.Errorf("witness offsets [%d, %d) out of range (%d ops)", w.Prev, w.Cur, len(ops))
	}
	p, c := &ops[w.Prev], &ops[w.Cur]
	if p.Kind != tracefile.OpAccess || c.Kind != tracefile.OpAccess {
		return fmt.Errorf("witness offsets are not both accesses (%v, %v)", p.Kind, c.Kind)
	}
	pa, ca := p.Access, c.Access
	if pa.Addr/mem.WordBytes != w.Word/mem.WordBytes || ca.Addr/mem.WordBytes != w.Word/mem.WordBytes {
		return fmt.Errorf("witness accesses touch %#x and %#x, not word %#x", pa.Addr, ca.Addr, w.Word)
	}
	if pa.Kind == core.KindLoad && ca.Kind == core.KindLoad {
		return fmt.Errorf("witness pair is read-read")
	}
	its := h.Config.Detector.ITS
	pt := thread{block: pa.Block, warp: pa.Warp, lane: -1}
	ct := thread{block: ca.Block, warp: ca.Warp, lane: -1}
	if its && pa.Diverged {
		pt.lane = pa.Lane
	}
	if its && ca.Diverged {
		ct.lane = ca.Lane
	}
	if sameThread(pt, ct) {
		return fmt.Errorf("witness pair is program-ordered (same thread b%d w%d)", pa.Block, pa.Warp)
	}
	if (pa.Block == ca.Block) != w.SameBlock {
		return fmt.Errorf("witness sameBlock=%v but blocks are %d and %d", w.SameBlock, pa.Block, ca.Block)
	}

	r := newWitnessReplay(h.Config.Detector.AcqRel)
	var prevPhaseAt, curPhase uint64
	var blkAt, devAt uint8
	var prevBloom, curBloom core.Bloom
	for i := 0; i <= w.Cur; i++ {
		op := &ops[i]
		switch op.Kind {
		case tracefile.OpKernel:
			if i > w.Prev {
				return fmt.Errorf("kernel boundary at ops[%d] orders the pair", i)
			}
			r.reset()
		case tracefile.OpBarrier:
			r.phases[op.Block]++
		case tracefile.OpFence:
			r.ff.OnFence(op.Block, op.Warp, op.Scope)
			r.onFence(op.Block, op.Warp, op.Scope)
		case tracefile.OpAccess:
			acc := op.Access
			r.preAccess(op)
			if i == w.Prev {
				prevPhaseAt = r.phases[pa.Block]
				blkAt, devAt = r.ff.Get(pa.Block, pa.Warp)
				prevBloom = r.summary(acc.Block, acc.Warp)
			}
			if i == w.Cur {
				curPhase = r.phases[ca.Block]
				curBloom = r.summary(acc.Block, acc.Warp)
			}
			r.postAccess(op)
		}
	}
	blkNow, devNow := r.ff.Get(pa.Block, pa.Warp)

	// Re-derived facts must match the witness's claims.
	if prevPhaseAt != w.PrevPhase || curPhase != w.CurPhase {
		return fmt.Errorf("phases recount to %d/%d, witness claims %d/%d", prevPhaseAt, curPhase, w.PrevPhase, w.CurPhase)
	}
	if w.SameBlock && prevPhaseAt != curPhase {
		return fmt.Errorf("a barrier separates the same-block pair (phases %d and %d)", prevPhaseAt, curPhase)
	}
	switch w.Kind {
	case core.RaceScopedAtomic:
		if pa.Kind != core.KindAtomic || pa.Scope != core.ScopeBlock || w.SameBlock {
			return fmt.Errorf("scoped-atomic witness needs a cross-block block-scope atomic")
		}
	case core.RaceMissingLockLoad, core.RaceMissingLockStore:
		if prevBloom != core.Bloom(w.PrevBloom) || curBloom != core.Bloom(w.CurBloom) {
			return fmt.Errorf("blooms replay to %04x/%04x, witness claims %04x/%04x", prevBloom, curBloom, w.PrevBloom, w.CurBloom)
		}
		if prevBloom.Empty() && curBloom.Empty() {
			return fmt.Errorf("missing-lock witness with no lock evidence on either side")
		}
		if curBloom.Intersects(prevBloom) {
			return fmt.Errorf("a common lock orders the pair (blooms %04x and %04x)", prevBloom, curBloom)
		}
	case core.RaceMissingBlockFence, core.RaceDivergedWarp:
		if !w.SameBlock {
			return fmt.Errorf("%s witness must be same-block", w.Kind)
		}
		if blkAt != w.PrevBlkFence || devAt != w.PrevDevFence || blkNow != w.BlkFenceNow || devNow != w.DevFenceNow {
			return fmt.Errorf("fence IDs replay to (%d,%d)->(%d,%d), witness claims (%d,%d)->(%d,%d)",
				blkAt, devAt, blkNow, devNow, w.PrevBlkFence, w.PrevDevFence, w.BlkFenceNow, w.DevFenceNow)
		}
		if blkAt != blkNow || devAt != devNow {
			return fmt.Errorf("the previous warp fenced between the pair")
		}
	case core.RaceMissingDeviceFence:
		if w.SameBlock {
			return fmt.Errorf("missing-device-fence witness must be cross-block")
		}
		if devAt != w.PrevDevFence || devNow != w.DevFenceNow {
			return fmt.Errorf("device fence IDs replay to %d->%d, witness claims %d->%d",
				devAt, devNow, w.PrevDevFence, w.DevFenceNow)
		}
		if devAt != devNow {
			return fmt.Errorf("the previous warp device-fenced between the pair")
		}
	case core.RaceNotStrong:
		if w.WordAllStrong && w.CurStrong {
			return fmt.Errorf("not-strong witness with both sides strong")
		}
	default:
		return fmt.Errorf("unknown witness kind %v", w.Kind)
	}
	return nil
}
