package predict

import (
	"fmt"

	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/tracefile"
)

// This file keeps the map-based per-kernel state the analysis used before
// its dense layout, as a test-only reference: one wordState per touched
// word in a map, a growing frame slice per word, a map of barrier phases.
// The equivalence tests require Run to match it field for field.

// ReferenceRun is Run over the reference state layout.
func ReferenceRun(h tracefile.Header, ops []tracefile.Op, opt Options) (*Result, error) {
	a, err := newAnalysis(h, opt)
	if err != nil {
		return nil, err
	}
	r := &refAnalysis{
		analysis: a,
		locks:    make(map[[2]int]*core.LockTable),
		phases:   make(map[int]uint64),
		words:    make(map[uint64]*refWordState),
	}
	for i := range ops {
		if err := r.apply(i, &ops[i]); err != nil {
			return nil, err
		}
	}
	return a.finish(), nil
}

type refFrame struct {
	used bool
	op   int
	t    thread

	kind   core.AccessKind
	scope  core.Scope
	strong bool
	site   string
	cycle  uint64

	phase    uint64
	blkFence uint8
	devFence uint8
	bloom    core.Bloom
	diverged bool
}

type refWordState struct {
	frames      []refFrameSlot
	allStrong   bool
	initialized bool
}

type refFrameSlot struct {
	t           thread
	read, write refFrame
}

func (ws *refWordState) slot(t thread) *refFrameSlot {
	for i := range ws.frames {
		if ws.frames[i].t == t {
			return &ws.frames[i]
		}
	}
	ws.frames = append(ws.frames, refFrameSlot{t: t})
	return &ws.frames[len(ws.frames)-1]
}

// refAnalysis borrows the fence file, allocation map and prediction set
// of an analysis and replaces its dense lock, word and phase state with
// maps. Its lock tables are made on any use, where the analysis makes
// them only on a CAS.
type refAnalysis struct {
	*analysis
	locks  map[[2]int]*core.LockTable
	phases map[int]uint64
	words  map[uint64]*refWordState
}

// lockTable returns a warp's lock table, keyed by the warp ID's low six
// bits as the analysis keys it, making it on first use.
func (a *refAnalysis) lockTable(block, warp int) *core.LockTable {
	k := [2]int{block, warp & 63}
	lt := a.locks[k]
	if lt == nil {
		lt = &core.LockTable{}
		a.locks[k] = lt
	}
	return lt
}

func (a *refAnalysis) resetForKernel() {
	a.ff.Reset()
	a.locks = make(map[[2]int]*core.LockTable)
	a.phases = make(map[int]uint64)
	a.words = make(map[uint64]*refWordState)
}

func (a *refAnalysis) apply(i int, op *tracefile.Op) error {
	if a.res.Ops >= a.opt.maxOps() {
		return fmt.Errorf("predict: trace exceeds %d ops", a.opt.maxOps())
	}
	a.res.Ops++
	switch op.Kind {
	case tracefile.OpAccess:
		if !validIDs(op.Access.Block, op.Access.Warp) {
			return fmt.Errorf("predict: access op %d has out-of-range block %d / warp %d", i, op.Access.Block, op.Access.Warp)
		}
		a.res.Accesses++
		a.onAccess(i, op)
	case tracefile.OpFence:
		if !validIDs(op.Block, op.Warp) {
			return fmt.Errorf("predict: fence op %d has out-of-range block %d / warp %d", i, op.Block, op.Warp)
		}
		a.ff.OnFence(op.Block, op.Warp, op.Scope)
		a.lockTable(op.Block, op.Warp).OnFence(op.Scope)
	case tracefile.OpBarrier:
		a.phases[op.Block]++
	case tracefile.OpKernel:
		a.res.Kernels++
		a.resetForKernel()
	case tracefile.OpKernelEnd:
	case tracefile.OpAlloc:
		wantBase := (a.mm.Used() + 127) &^ 127
		padded := (op.Bytes + mem.WordBytes - 1) &^ (mem.WordBytes - 1)
		if padded < op.Bytes || wantBase > a.mm.Size() || padded > a.mm.Size()-wantBase {
			return fmt.Errorf("predict: allocation %q (%d bytes) exceeds the %d-byte arena",
				op.Name, op.Bytes, a.mm.Size())
		}
		base := a.mm.Alloc(op.Name, op.Bytes)
		if uint64(base) != op.Base {
			return fmt.Errorf("predict: allocation %q reconstructed at %#x but recorded at %#x (trace/config drift)",
				op.Name, uint64(base), op.Base)
		}
	default:
		return fmt.Errorf("predict: unhandled op kind %v", op.Kind)
	}
	return nil
}

func (a *refAnalysis) onAccess(i int, op *tracefile.Op) {
	acc := op.Access
	t := thread{block: acc.Block, warp: acc.Warp, lane: -1}
	if a.its && acc.Diverged {
		t.lane = acc.Lane
	}

	if op.AtomicOp == core.AtomicRelease && a.acqrel {
		a.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
		lt := a.lockTable(acc.Block, acc.Warp)
		lt.OnFence(acc.Scope)
		lt.OnExch(acc.Addr, acc.Scope)
	}

	cur := a.lockTable(acc.Block, acc.Warp).Summary()
	word := acc.Addr / mem.WordBytes
	ws := a.words[word]
	if ws == nil {
		ws = &refWordState{allStrong: true}
		a.words[word] = ws
	}

	a.checkPairs(i, op, t, cur, ws)
	a.updateFrames(i, op, t, cur, ws)

	switch op.AtomicOp {
	case core.AtomicCAS:
		a.lockTable(acc.Block, acc.Warp).OnCAS(acc.Addr, acc.Scope)
	case core.AtomicExch:
		a.lockTable(acc.Block, acc.Warp).OnExch(acc.Addr, acc.Scope)
	case core.AtomicAcquire:
		if a.acqrel {
			a.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
			a.lockTable(acc.Block, acc.Warp).OnFence(acc.Scope)
		}
	}
}

func (a *refAnalysis) checkPairs(i int, op *tracefile.Op, t thread, cur core.Bloom, ws *refWordState) {
	acc := op.Access
	isWrite := acc.Kind != core.KindLoad
	for si := range ws.frames {
		slot := &ws.frames[si]
		if sameThread(slot.t, t) {
			continue
		}
		for _, f := range []*refFrame{&slot.write, &slot.read} {
			if !f.used {
				continue
			}
			if f.kind == core.KindLoad && !isWrite {
				continue
			}
			if kind, raced := a.pairCheck(f, op, t, cur, ws); raced {
				a.report(kind, f, i, op, t, cur, ws)
			}
		}
	}
}

func (a *refAnalysis) pairCheck(f *refFrame, op *tracefile.Op, t thread, cur core.Bloom, ws *refWordState) (core.RaceKind, bool) {
	acc := op.Access
	sameBlock := f.t.block == t.block
	if sameBlock && f.phase != a.phases[t.block] {
		return 0, false
	}
	if f.kind == core.KindAtomic {
		if f.scope == core.ScopeBlock && !sameBlock {
			return core.RaceScopedAtomic, true
		}
		return 0, false
	}
	if !cur.Empty() || !f.bloom.Empty() {
		if !cur.Intersects(f.bloom) {
			if acc.Kind == core.KindLoad {
				return core.RaceMissingLockLoad, true
			}
			return core.RaceMissingLockStore, true
		}
		return 0, false
	}
	ffBlk, ffDev := a.ff.Get(f.t.block, f.t.warp)
	if sameBlock {
		if f.blkFence == ffBlk && f.devFence == ffDev {
			if a.its && f.diverged && acc.Diverged {
				return core.RaceDivergedWarp, true
			}
			return core.RaceMissingBlockFence, true
		}
	} else if f.devFence == ffDev {
		return core.RaceMissingDeviceFence, true
	}
	if !ws.allStrong || !acc.Strong {
		return core.RaceNotStrong, true
	}
	return 0, false
}

func (a *refAnalysis) updateFrames(i int, op *tracefile.Op, t thread, cur core.Bloom, ws *refWordState) {
	acc := op.Access
	blkF, devF := a.ff.Get(acc.Block, acc.Warp)
	nf := refFrame{
		used:     true,
		op:       i,
		t:        t,
		kind:     acc.Kind,
		scope:    acc.Scope,
		strong:   acc.Strong,
		site:     acc.Site,
		cycle:    acc.Cycle,
		phase:    a.phases[t.block],
		blkFence: blkF,
		devFence: devF,
		bloom:    cur,
		diverged: acc.Diverged,
	}
	slot := ws.slot(t)
	if acc.Kind == core.KindLoad {
		slot.read = nf
	} else {
		slot.write = nf
	}
	if !acc.Strong {
		ws.allStrong = false
	}
	ws.initialized = true
}

func (a *refAnalysis) report(kind core.RaceKind, f *refFrame, i int, op *tracefile.Op, t thread, cur core.Bloom, ws *refWordState) {
	acc := op.Access
	wordAddr := acc.Addr / mem.WordBytes * mem.WordBytes
	key := recordKey{kind: kind, addr: wordAddr, site: acc.Site}
	if pi, ok := a.index[key]; ok {
		a.res.Predictions[pi].Record.Count++
		return
	}
	sameBlock := f.t.block == t.block
	ffBlk, ffDev := a.ff.Get(f.t.block, f.t.warp)
	alloc := ""
	if al, ok := a.mm.Locate(mem.Addr(wordAddr)); ok {
		alloc = al.Name
	}
	a.index[key] = len(a.res.Predictions)
	a.res.Predictions = append(a.res.Predictions, Prediction{
		Record: core.Record{
			Kind:      kind,
			Addr:      wordAddr,
			SameBlock: sameBlock,
			PrevBlock: f.t.block,
			PrevWarp:  f.t.warp,
			CurBlock:  t.block,
			CurWarp:   t.warp,
			Site:      acc.Site,
			Cycle:     acc.Cycle,
			Count:     1,
		},
		Alloc: alloc,
		Witness: Witness{
			Prev:          f.op,
			Cur:           i,
			Kind:          kind,
			Word:          wordAddr,
			SameBlock:     sameBlock,
			PrevPhase:     f.phase,
			CurPhase:      a.phases[t.block],
			PrevBlkFence:  f.blkFence,
			PrevDevFence:  f.devFence,
			BlkFenceNow:   ffBlk,
			DevFenceNow:   ffDev,
			PrevBloom:     uint16(f.bloom),
			CurBloom:      uint16(cur),
			WordAllStrong: ws.allStrong,
			CurStrong:     acc.Strong,
		},
	})
}
