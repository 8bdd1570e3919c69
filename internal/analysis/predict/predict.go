// Package predict is a sound predictive race analysis over recorded SCTR
// traces (internal/tracefile): from one observed schedule it reports the
// conflicting access pairs that no mandatory ordering of the execution
// orders, i.e. races reachable in *some* legal reordering, without
// re-executing the program.
//
// The analysis computes a scoped-SHB-style partial order from the op
// stream and checks every conflicting pair against it:
//
//   - program order within a thread (a warp, or a lane of a diverged warp
//     under the ITS extension);
//   - barrier-phase edges: every warp of a block participates in every
//     __syncthreads, so same-block accesses in different barrier phases
//     are ordered in every legal schedule;
//   - kernel boundaries: a launch is a device-wide synchronization point,
//     so per-kernel analysis state is reset exactly like the detector's
//     metadata;
//   - release→acquire edges keyed by scope and sync object, using the
//     same CAS+fence / fence+Exch lock inference the dynamic detector and
//     the static dataflow share (core.LockTable is reused verbatim, so
//     the lockset suppression is bit-compatible with the hardware bloom);
//   - writer-side scoped fences, tracked through core.FenceFile exactly
//     as the detector tracks them (Table IV (a)/(b)), with the strong-
//     operation restriction of Table IV (c).
//
// Where the detector keeps one metadata slot per word — so a third access
// overwrites the evidence of an earlier conflict — the predictor keeps a
// vector frame per (word, thread): the last read and last write of every
// thread, each carrying the scoped epoch (barrier phase, fence-file IDs,
// lock bloom) it executed under. A pair unordered by the partial order is
// reported with a machine-checkable witness: the two trace offsets plus
// the sync state that fails to order them (verified independently by
// CheckWitness).
//
// Soundness: every ordering edge above is mandatory in every legal
// reordering of the trace (program order, barrier and kernel semantics)
// or mirrors the synchronization the program actually performed
// (lock/fence edges), so an unordered conflicting pair can be brought
// together by a legality-preserving reordering — replay.PerturbTarget
// searches for exactly such a schedule and the predict gate
// (harness.RunPredictSuite) demands one (or a reviewed justification)
// for every prediction the dynamic detector did not already confirm.
package predict

import (
	"fmt"
	"io"
	"math"
	"sort"

	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/tracefile"
)

// Options bounds an analysis run so hostile traces terminate cleanly.
type Options struct {
	// MaxOps caps the decoded ops analyzed; 0 means DefaultMaxOps.
	MaxOps int
	// MaxMemBytes caps the reconstructed device arena; 0 means
	// DefaultMaxMemBytes. Headers demanding more are rejected.
	MaxMemBytes uint64
}

// Default analysis bounds: far above anything the suite records, low
// enough that a corrupt header cannot drive a runaway allocation.
const (
	DefaultMaxOps      = 64 << 20
	DefaultMaxMemBytes = 1 << 30
)

func (o Options) maxOps() int {
	if o.MaxOps > 0 {
		return o.MaxOps
	}
	return DefaultMaxOps
}

func (o Options) maxMem() uint64 {
	if o.MaxMemBytes > 0 {
		return o.MaxMemBytes
	}
	return DefaultMaxMemBytes
}

// Prediction is one predicted race: a detector-shaped record (deduped by
// kind, word and site, counting contributing pairs) plus the witness of
// the first unordered pair that produced it.
type Prediction struct {
	Record core.Record
	// Alloc is the allocation containing the word ("" when the address
	// falls outside every recorded allocation).
	Alloc   string
	Witness Witness
}

// Result is the outcome of one predictive analysis.
type Result struct {
	Header      tracefile.Header
	Predictions []Prediction

	// Ops, Accesses and Kernels count what the trace contained.
	Ops, Accesses, Kernels int

	// Mem is the reconstructed allocation map (no data), used to resolve
	// record addresses to allocation names exactly as replay does.
	Mem *mem.Memory
}

// thread identifies an analysis thread: a warp, or — under the ITS
// extension — one lane of a diverged warp. lane is -1 for whole-warp
// accesses.
type thread struct {
	block, warp, lane int
}

// sameThread mirrors the detector's sameWarp computation: two accesses of
// one warp are program-ordered unless both were issued diverged on
// different lanes (ITS, Section VI).
func sameThread(a, b thread) bool {
	if a.block != b.block || a.warp != b.warp {
		return false
	}
	return a.lane < 0 || b.lane < 0 || a.lane == b.lane
}

// frame is the scoped epoch of one thread's last read or last write of a
// word: everything the pair check needs to decide whether a later access
// is ordered after it. The thread is its slot's; the fields are ordered
// to pack into 24 bytes.
type frame struct {
	op    int    // trace op index
	phase uint64 // owning block's barrier phase at the access

	bloom    core.Bloom // active-lock summary the access carried
	kind     core.AccessKind
	scope    core.Scope // atomics only
	blkFence uint8      // fence-file IDs of the thread's warp at the access
	devFence uint8      //
	used     bool
	diverged bool
}

type frameSlot struct {
	t           thread
	read, write frame
}

// wordState is the per-word analysis state: one read and one write frame
// per thread that touched the word in this kernel, plus the sticky strong
// flag that mirrors the metadata entry's Strong bit (weak accesses poison
// fence-based ordering for the whole word until the next kernel, Table IV
// (c)). The first thread's slot is inline; later threads follow in
// first-touch order, which is the order pair checks visit them.
type wordState struct {
	first     frameSlot
	more      []frameSlot // capacity survives the kernel reset
	allStrong bool
}

// Dense per-kernel state. A word's state is found through a paged index
// over the arena: 4 KB pages of int32 slots holding a state number plus
// one (0: untouched this kernel), made on first touch. States live in
// fixed-size chunks, so growing never copies them and a kernel reset
// reuses them, with every per-word slice's capacity. A reset costs the
// pages and states the kernel touched, not the arena.
const (
	idxShift   = 10
	idxLen     = 1 << idxShift
	idxMask    = idxLen - 1
	chunkShift = 8
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

type (
	idxPage   [idxLen]int32
	wordChunk [chunkLen]wordState
	// warpLocks is one block's lock tables, one per warp (the warp ID's
	// low six bits, as the detector's dense index keys them).
	warpLocks [64]core.LockTable
)

// analysis is the streaming state of one run.
type analysis struct {
	header tracefile.Header
	opt    Options

	its    bool
	acqrel bool

	ff           core.FenceFile
	phases       []uint64 // block -> barrier phase
	phaseTouched []int    // blocks whose phase advanced since the last reset

	// Lock tables, made per block on the first CAS and reset like the
	// word index: a fence on a block without tables costs nothing.
	locks       []*warpLocks // block -> tables; nil: untouched this kernel
	lockTouched []int        // blocks whose tables were made since the last reset
	lockFree    []*warpLocks // cleared tables released by a reset, reused first

	dir     []*idxPage // word>>idxShift -> page; nil: untouched this kernel
	touched []int      // pages made since the last reset
	free    []*idxPage // cleared pages released by a reset, reused first
	chunks  []*wordChunk
	nstates int // states in use this kernel

	mm  *mem.Memory
	res *Result

	index map[recordKey]int
}

type recordKey struct {
	kind core.RaceKind
	addr uint64
	site string
}

// FromReader streams a whole trace through the analysis.
func FromReader(r *tracefile.Reader, opt Options) (*Result, error) {
	a, err := newAnalysis(r.Header(), opt)
	if err != nil {
		return nil, err
	}
	for i := 0; ; i++ {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := a.apply(i, &op); err != nil {
			return nil, err
		}
	}
	return a.finish(), nil
}

// Run analyzes an in-memory op sequence under the given header.
func Run(h tracefile.Header, ops []tracefile.Op, opt Options) (*Result, error) {
	a, err := newAnalysis(h, opt)
	if err != nil {
		return nil, err
	}
	for i := range ops {
		if err := a.apply(i, &ops[i]); err != nil {
			return nil, err
		}
	}
	return a.finish(), nil
}

func newAnalysis(h tracefile.Header, opt Options) (*analysis, error) {
	memBytes := uint64(h.Config.DeviceMemBytes)
	if h.Config.DeviceMemBytes <= 0 || memBytes%mem.WordBytes != 0 {
		return nil, fmt.Errorf("predict: header device memory %d bytes is not a positive word multiple", h.Config.DeviceMemBytes)
	}
	if memBytes > opt.maxMem() {
		return nil, fmt.Errorf("predict: header demands %d bytes of device memory (limit %d)", memBytes, opt.maxMem())
	}
	words := memBytes / mem.WordBytes
	if words > math.MaxInt32 {
		return nil, fmt.Errorf("predict: a %d-byte arena exceeds the %d words the word index addresses", memBytes, math.MaxInt32)
	}
	return &analysis{
		header: h,
		opt:    opt,
		its:    h.Config.Detector.ITS,
		acqrel: h.Config.Detector.AcqRel,
		dir:    make([]*idxPage, (words+idxMask)>>idxShift),
		mm:     mem.NewMap(memBytes),
		res:    &Result{Header: h},
		index:  make(map[recordKey]int),
	}, nil
}

// Hostile-trace bounds: block and warp IDs far beyond any real grid are
// rejected before they can size the per-block lock-table directory.
const (
	maxBlockID = 1 << 20
	maxWarpID  = 1 << 12
)

func validIDs(block, warp int) bool {
	return block >= 0 && block < maxBlockID && warp >= 0 && warp < maxWarpID
}

// lockTable returns a warp's lock table, or nil while its block has none
// this kernel: an empty table, on which fences, Exch and releases have no
// effect and whose summary is empty.
func (a *analysis) lockTable(block, warp int) *core.LockTable {
	if uint(block) < uint(len(a.locks)) {
		if wl := a.locks[block]; wl != nil {
			return &wl[warp&63]
		}
	}
	return nil
}

// casTable returns a warp's lock table for a CAS, making its block's
// tables on the kernel's first CAS by any of its warps.
func (a *analysis) casTable(block, warp int) *core.LockTable {
	if block >= len(a.locks) {
		grown := make([]*warpLocks, block+1, max(block+1, 2*len(a.locks)))
		copy(grown, a.locks)
		a.locks = grown
	}
	wl := a.locks[block]
	if wl == nil {
		if n := len(a.lockFree); n > 0 {
			wl, a.lockFree = a.lockFree[n-1], a.lockFree[:n-1]
		} else {
			wl = new(warpLocks)
		}
		a.locks[block] = wl
		a.lockTouched = append(a.lockTouched, block)
	}
	return &wl[warp&63]
}

// resetForKernel mirrors Detector.ResetForKernel: a launch is a global
// synchronization point, so cross-kernel pairs can never race.
func (a *analysis) resetForKernel() {
	a.ff.Reset()
	for _, b := range a.lockTouched {
		*a.locks[b] = warpLocks{}
		a.lockFree = append(a.lockFree, a.locks[b])
		a.locks[b] = nil
	}
	a.lockTouched = a.lockTouched[:0]
	for _, b := range a.phaseTouched {
		a.phases[b] = 0
	}
	a.phaseTouched = a.phaseTouched[:0]
	for _, pi := range a.touched {
		p := a.dir[pi]
		clear(p[:])
		a.free = append(a.free, p)
		a.dir[pi] = nil
	}
	a.touched = a.touched[:0]
	a.nstates = 0
}

// phase returns a block's barrier phase in this kernel.
func (a *analysis) phase(block int) uint64 {
	if block < len(a.phases) {
		return a.phases[block]
	}
	return 0
}

// barrier advances a block's barrier phase. No access can carry a block
// outside [0, maxBlockID) (validIDs rejects it first), so such a
// barrier's phase is never read and it is ignored.
func (a *analysis) barrier(block int) {
	if block < 0 || block >= maxBlockID {
		return
	}
	if block >= len(a.phases) {
		a.phases = append(a.phases, make([]uint64, block+1-len(a.phases))...)
	}
	if a.phases[block] == 0 {
		a.phaseTouched = append(a.phaseTouched, block)
	}
	a.phases[block]++
}

// state returns the word's state in this kernel, starting it for
// thread t, with no frames yet, on the kernel's first touch of the word.
func (a *analysis) state(word uint64, t thread) *wordState {
	pi := int(word >> idxShift)
	p := a.dir[pi]
	if p == nil {
		if n := len(a.free); n > 0 {
			p, a.free = a.free[n-1], a.free[:n-1]
		} else {
			p = new(idxPage)
		}
		a.dir[pi] = p
		a.touched = append(a.touched, pi)
	}
	s := &p[word&idxMask]
	if *s != 0 {
		i := int(*s - 1)
		return &a.chunks[i>>chunkShift][i&chunkMask]
	}
	i := a.nstates
	if i>>chunkShift == len(a.chunks) {
		a.chunks = append(a.chunks, new(wordChunk))
	}
	a.nstates++
	*s = int32(a.nstates)
	ws := &a.chunks[i>>chunkShift][i&chunkMask]
	ws.first = frameSlot{t: t}
	ws.more = ws.more[:0]
	ws.allStrong = true
	return ws
}

func (a *analysis) apply(i int, op *tracefile.Op) error {
	if a.res.Ops >= a.opt.maxOps() {
		return fmt.Errorf("predict: trace exceeds %d ops", a.opt.maxOps())
	}
	a.res.Ops++
	switch op.Kind {
	case tracefile.OpAccess:
		if !validIDs(op.Access.Block, op.Access.Warp) {
			return fmt.Errorf("predict: access op %d has out-of-range block %d / warp %d", i, op.Access.Block, op.Access.Warp)
		}
		if op.Access.Addr >= a.mm.Size() {
			return fmt.Errorf("predict: access op %d at %#x outside the %d-byte device arena", i, op.Access.Addr, a.mm.Size())
		}
		a.res.Accesses++
		a.onAccess(i, op)
	case tracefile.OpFence:
		if !validIDs(op.Block, op.Warp) {
			return fmt.Errorf("predict: fence op %d has out-of-range block %d / warp %d", i, op.Block, op.Warp)
		}
		a.ff.OnFence(op.Block, op.Warp, op.Scope)
		if lt := a.lockTable(op.Block, op.Warp); lt != nil {
			lt.OnFence(op.Scope)
		}
	case tracefile.OpBarrier:
		a.barrier(op.Block)
	case tracefile.OpKernel:
		a.res.Kernels++
		a.resetForKernel()
	case tracefile.OpKernelEnd:
	case tracefile.OpAlloc:
		// Reconstruct the allocation map; recorded base addresses must
		// match the deterministic bump allocator (replay's drift check).
		// The bounds guard mirrors mem.Alloc's alignment arithmetic
		// (overflow-safe) so hostile traces error instead of panicking.
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

// onAccess reproduces the detector's per-access call sequence — a release
// atomic's lock/fence effects precede the check, every other flavour
// follows it — then checks the access against every other thread's frames
// and records its own.
func (a *analysis) onAccess(i int, op *tracefile.Op) {
	acc := &op.Access
	t := thread{block: acc.Block, warp: acc.Warp, lane: -1}
	if a.its && acc.Diverged {
		t.lane = acc.Lane
	}

	lt := a.lockTable(acc.Block, acc.Warp)
	if op.AtomicOp == core.AtomicRelease && a.acqrel {
		// Mirror Detector.OnRelease: fence at the release's scope, then a
		// releasing Exch on the sync object.
		a.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
		if lt != nil {
			lt.OnFence(acc.Scope)
			lt.OnExch(acc.Addr, acc.Scope)
		}
	}

	var cur core.Bloom
	if lt != nil {
		cur = lt.Summary()
	}
	ws := a.state(acc.Addr/mem.WordBytes, t)

	own := a.checkPairs(i, op, t, cur, ws)
	a.updateFrames(i, op, t, cur, ws, own)

	switch op.AtomicOp {
	case core.AtomicCAS:
		a.casTable(acc.Block, acc.Warp).OnCAS(acc.Addr, acc.Scope)
	case core.AtomicExch:
		if lt != nil {
			lt.OnExch(acc.Addr, acc.Scope)
		}
	case core.AtomicAcquire:
		if a.acqrel {
			// Mirror Detector.OnAcquire: consume the matching release's
			// ordering — a fence at the acquire's scope.
			a.ff.OnFence(acc.Block, acc.Warp, acc.Scope)
			if lt != nil {
				lt.OnFence(acc.Scope)
			}
		}
	}
}

// checkPairs runs the pair check of this access against every other
// thread's read and write frames of the word, in first-touch order. It
// returns the slot of the access's own thread, nil when it has none.
func (a *analysis) checkPairs(i int, op *tracefile.Op, t thread, cur core.Bloom, ws *wordState) (own *frameSlot) {
	if a.checkSlot(i, op, t, cur, ws, &ws.first) {
		own = &ws.first
	}
	for si := range ws.more {
		if a.checkSlot(i, op, t, cur, ws, &ws.more[si]) {
			own = &ws.more[si]
		}
	}
	return own
}

// checkSlot checks the access against one slot's frames unless the
// slot's thread is program-ordered with it, and reports whether the slot
// is the access's own thread's.
func (a *analysis) checkSlot(i int, op *tracefile.Op, t thread, cur core.Bloom, ws *wordState, slot *frameSlot) (own bool) {
	if slot.t == t {
		return true
	}
	if sameThread(slot.t, t) {
		return false
	}
	isWrite := op.Access.Kind != core.KindLoad
	for _, f := range [2]*frame{&slot.write, &slot.read} {
		if !f.used {
			continue
		}
		if f.kind == core.KindLoad && !isWrite {
			continue // read-read pairs never conflict
		}
		if kind, raced := a.pairCheck(f, slot.t, op, t, cur, ws); raced {
			a.report(kind, f, slot.t, i, op, t, cur, ws)
		}
	}
	return false
}

// pairCheck decides whether the pair (f, current access) is ordered by
// the partial order, mirroring the detector's decision tree (Tables III
// and IV) evaluated on the pair's own scoped epochs.
func (a *analysis) pairCheck(f *frame, ft thread, op *tracefile.Op, t thread, cur core.Bloom, ws *wordState) (core.RaceKind, bool) {
	acc := &op.Access
	sameBlock := ft.block == t.block

	// Barrier-phase edge: every warp of a block participates in every
	// barrier, so same-block accesses in different phases are ordered in
	// every legal schedule (Table III (c), per-pair and wrap-free).
	if sameBlock && f.phase != a.phase(t.block) {
		return 0, false
	}

	// Previous access was an atomic: atomics synchronize at their scope,
	// so the only hazard is insufficient scope — Table IV (d).
	if f.kind == core.KindAtomic {
		if f.scope == core.ScopeBlock && !sameBlock {
			return core.RaceScopedAtomic, true
		}
		return 0, false
	}

	// Lockset path — Table IV (e)/(f): triggered when either side carries
	// lock evidence. The blooms are built by the same core.LockTable the
	// detector uses, so suppression is bit-compatible.
	if !cur.Empty() || !f.bloom.Empty() {
		if !cur.Intersects(f.bloom) {
			if acc.Kind == core.KindLoad {
				return core.RaceMissingLockLoad, true
			}
			return core.RaceMissingLockStore, true
		}
		return 0, false // common lock protects the pair
	}

	// Happens-before path — Table IV (a)/(b)/(c): has the previous
	// thread's warp fenced (at sufficient scope) since the access?
	ffBlk, ffDev := a.ff.Get(ft.block, ft.warp)
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
	// A fence exists, but fences only order strong operations. The sticky
	// word flag mirrors the metadata entry's Strong bit.
	if !ws.allStrong || !acc.Strong {
		return core.RaceNotStrong, true
	}
	return 0, false
}

// updateFrames records this access as its thread's latest read or write
// of the word, in the thread's slot own or in a new one, and folds its
// strength into the word's sticky flag.
func (a *analysis) updateFrames(i int, op *tracefile.Op, t thread, cur core.Bloom, ws *wordState, own *frameSlot) {
	acc := &op.Access
	blkF, devF := a.ff.Get(acc.Block, acc.Warp)
	nf := frame{
		op:       i,
		phase:    a.phase(t.block),
		bloom:    cur,
		kind:     acc.Kind,
		scope:    acc.Scope,
		blkFence: blkF,
		devFence: devF,
		used:     true,
		diverged: acc.Diverged,
	}
	if own == nil {
		ws.more = append(ws.more, frameSlot{t: t})
		own = &ws.more[len(ws.more)-1]
	}
	if acc.Kind == core.KindLoad {
		own.read = nf
	} else {
		own.write = nf
	}
	if !acc.Strong {
		ws.allStrong = false
	}
}

// report folds one unordered pair into the deduped prediction set,
// mirroring the detector's (kind, word, site) record identity.
func (a *analysis) report(kind core.RaceKind, f *frame, ft thread, i int, op *tracefile.Op, t thread, cur core.Bloom, ws *wordState) {
	acc := &op.Access
	wordAddr := acc.Addr / mem.WordBytes * mem.WordBytes
	key := recordKey{kind: kind, addr: wordAddr, site: acc.Site}
	if pi, ok := a.index[key]; ok {
		a.res.Predictions[pi].Record.Count++
		return
	}
	sameBlock := ft.block == t.block
	ffBlk, ffDev := a.ff.Get(ft.block, ft.warp)
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
			PrevBlock: ft.block,
			PrevWarp:  ft.warp,
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
			CurPhase:      a.phase(t.block),
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

func (a *analysis) finish() *Result {
	res := a.res
	res.Mem = a.mm
	sort.SliceStable(res.Predictions, func(i, j int) bool {
		wi, wj := res.Predictions[i].Witness, res.Predictions[j].Witness
		if wi.Cur != wj.Cur {
			return wi.Cur < wj.Cur
		}
		return wi.Prev < wj.Prev
	})
	return res
}

// Tuple is a race at the granularity the gates compare: which
// allocation, which Table IV kind. The predict gate, the explorer and
// repair (whose targets are tuples) all compare races by it.
type Tuple struct {
	Alloc string        `json:"alloc"`
	Kind  core.RaceKind `json:"kind"`
}

func (t Tuple) String() string { return fmt.Sprintf("%s/%s", t.Alloc, t.Kind) }

// Less orders tuples by allocation, then kind.
func (t Tuple) Less(u Tuple) bool {
	if t.Alloc != u.Alloc {
		return t.Alloc < u.Alloc
	}
	return t.Kind < u.Kind
}

// SortedTuples lists a tuple set in Less order, so every report and
// worklist built from a set is independent of map iteration order.
func SortedTuples(set map[Tuple]bool) []Tuple {
	out := make([]Tuple, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Tuple is the prediction's (allocation, kind) tuple.
func (p Prediction) Tuple() Tuple { return Tuple{Alloc: p.Alloc, Kind: p.Record.Kind} }

// Tuples returns the deduplicated (allocation, kind) set of the
// predictions, sorted.
func (r *Result) Tuples() []Tuple {
	set := make(map[Tuple]bool)
	for _, p := range r.Predictions {
		set[p.Tuple()] = true
	}
	return SortedTuples(set)
}

// TuplesOf collects the (allocation, kind) tuples of race records,
// resolving each address in m. A race outside every allocation counts
// under the empty allocation name, as a Prediction's Alloc does.
func TuplesOf(races []core.Record, m *mem.Memory) map[Tuple]bool {
	set := make(map[Tuple]bool)
	for _, r := range races {
		var alloc string
		if al, ok := m.Locate(mem.Addr(r.Addr)); ok {
			alloc = al.Name
		}
		set[Tuple{Alloc: alloc, Kind: r.Kind}] = true
	}
	return set
}

// Covers reports whether some prediction matches the given allocation and
// race kind.
func (r *Result) Covers(alloc string, kind core.RaceKind) bool {
	for _, p := range r.Predictions {
		if p.Alloc == alloc && p.Record.Kind == kind {
			return true
		}
	}
	return false
}
