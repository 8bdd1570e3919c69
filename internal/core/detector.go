package core

import (
	"sort"

	"scord/internal/config"
	"scord/internal/stats"
)

// Access describes one global-memory instruction presented to the
// detector: the request packet of Figure 6, carrying the instruction type,
// address, warp/block identity, current barrier ID, and the lock bloom
// summary (computed here from the warp's lock table).
//
// The one-byte fields come first and together, so an Access packs into
// 64 bytes; a field added between them re-pads it (TestAccessSize).
type Access struct {
	Kind    AccessKind
	Scope   Scope // atomics only
	Strong  bool  // volatile-qualified or atomic
	Barrier uint8

	// ITS extension (Section VI): whether the warp is currently diverged
	// so lanes act as independent threads, and the issuing lane.
	Diverged bool
	Lane     int

	Addr  uint64
	Block int    // global block id
	Warp  int    // warp id within the block
	Site  string // optional source-site label for reports
	Cycle uint64
}

// AtomicOp distinguishes the RMW flavours the lock-inference logic cares
// about.
type AtomicOp uint8

const (
	// AtomicOther is any RMW that is neither CAS nor Exch (e.g. atomicAdd).
	AtomicOther AtomicOp = iota
	// AtomicCAS marks a compare-and-swap: a candidate lock acquire.
	AtomicCAS
	// AtomicExch marks an exchange: a candidate lock release.
	AtomicExch
	// AtomicMaxOp is an atomic max (no lock-inference significance).
	AtomicMaxOp
	// AtomicAcquire is the explicit PTX 6.0 acquire (Section VI extension).
	AtomicAcquire
	// AtomicRelease is the explicit PTX 6.0 release (Section VI extension).
	AtomicRelease
)

// CheckResult tells the timing model what the check cost: which metadata
// word was read (and written back), and whether a race was recorded.
type CheckResult struct {
	MetaAddr  uint64
	MetaWrite bool
	Raced     bool
}

// Detector is the ScoRD race-detection unit of Figure 6: metadata
// accessor, fence file, per-warp lock tables, and the detection logic of
// Tables III and IV. It is purely behavioural; the gpu package models its
// timing (inbox occupancy, metadata traffic, stalls).
//
// Every piece of per-kernel state is made on first use: metadata pages
// on the first write to them, fence-file rows on a slot's first fence,
// a block's lock tables on the first CAS by any of its warps. Building a
// detector therefore allocates nothing sized by the arena or the grid,
// and a kernel start clears only the state that exists.
type Detector struct {
	cfg   config.Detector
	store *MetaStore
	ff    FenceFile
	// locks holds each block's per-warp lock tables (keyed by the warp
	// ID's low six bits); nil until a warp of the block issues a CAS, the
	// only call that inserts an entry. The lookup sits on the per-access
	// hot path, where a map lookup costs more than the whole Table III
	// preliminary check.
	locks []*blockLocks
	s     *stats.Stats

	records  []Record
	index    map[recordKey]int // made on the first race
	overflow int

	// Provenance capture (EnableProvenance): evidence per unique race
	// tuple, plus the shadow site table the entry format cannot carry.
	prov     bool
	evidence map[recordKey]Evidence
	shadow   map[int]shadowPrev
}

// blockLocks is one block's lock tables, one per warp.
type blockLocks [64]LockTable

// NewDetector builds a detector over an arena of totalWords data words.
// metaBase is where the modelled metadata region starts.
func NewDetector(cfg config.Detector, totalWords int, metaBase uint64, s *stats.Stats) *Detector {
	if cfg.Mode == config.ModeOff {
		panic("core: NewDetector with ModeOff")
	}
	return &Detector{
		cfg:   cfg,
		store: NewMetaStore(cfg.Mode, totalWords, cfg.MetaCacheRatio, metaBase),
		s:     s,
	}
}

// Store exposes the metadata store (tests, overhead accounting).
func (d *Detector) Store() *MetaStore { return d.store }

// lockTable returns a warp's lock table, or nil while its block has none:
// an empty table, on which fences, Exch and releases have no effect.
func (d *Detector) lockTable(block, warp int) *LockTable {
	if uint(block) < uint(len(d.locks)) {
		if bl := d.locks[block]; bl != nil {
			return &bl[warp&63]
		}
	}
	return nil
}

// lockSummary is the warp's lock bloom: empty while its block has no
// tables.
func (d *Detector) lockSummary(block, warp int) Bloom {
	if t := d.lockTable(block, warp); t != nil {
		return t.Summary()
	}
	return 0
}

// onCAS inserts a candidate acquire, making the block's lock tables on
// the first CAS by any of its warps.
func (d *Detector) onCAS(block, warp int, addr uint64, scope Scope) {
	if block >= len(d.locks) {
		grown := make([]*blockLocks, block+1, max(block+1, 2*len(d.locks)))
		copy(grown, d.locks)
		d.locks = grown
	}
	bl := d.locks[block]
	if bl == nil {
		bl = new(blockLocks)
		d.locks[block] = bl
	}
	bl[warp&63].OnCAS(addr, scope)
}

// ResetForKernel clears all detection state at a kernel launch: metadata is
// (re-)initialized, fence and barrier counters restart, and lock tables are
// empty. Accumulated race records are preserved across kernels of one run.
func (d *Detector) ResetForKernel() {
	d.store.Reset()
	d.ff.Reset()
	for _, bl := range d.locks {
		if bl != nil {
			*bl = blockLocks{}
		}
	}
	if d.prov {
		// Metadata was reinitialized, so the shadow site table is stale.
		clear(d.shadow)
	}
}

// OnFence processes a scoped fence: the fence file counter of the issuing
// warp is bumped, and valid lock-table entries of matching-or-narrower
// scope become active (completing acquire patterns).
func (d *Detector) OnFence(block, warp int, scope Scope) {
	d.ff.OnFence(block, warp, scope)
	if t := d.lockTable(block, warp); t != nil {
		t.OnFence(scope)
	}
}

// onExch retires the warp's matching lock, if it holds one.
func (d *Detector) onExch(block, warp int, addr uint64, scope Scope) {
	if t := d.lockTable(block, warp); t != nil {
		t.OnExch(addr, scope)
	}
}

// OnAtomicOp updates lock-inference state after an atomic executed. CAS
// inserts a candidate acquire; Exch retires a matching lock.
func (d *Detector) OnAtomicOp(block, warp int, op AtomicOp, addr uint64, scope Scope) {
	switch op {
	case AtomicCAS:
		d.onCAS(block, warp, addr, scope)
	case AtomicExch:
		d.onExch(block, warp, addr, scope)
	case AtomicAcquire:
		d.OnAcquire(block, warp, addr, scope)
	case AtomicRelease:
		d.OnRelease(block, warp, addr, scope)
	}
}

// OnAcquire implements the explicit acquire instruction of the Section VI
// extension. Unlike the inferred CAS+fence lock pattern, an explicit
// acquire is not a lock acquisition: it consumes the ordering the matching
// release published (the happens-before conditions examine the releasing
// warp's fence state, which OnRelease advanced), so no lock-table entry is
// inserted here.
func (d *Detector) OnAcquire(block, warp int, addr uint64, scope Scope) {
	if !d.cfg.AcqRel {
		return
	}
	_ = addr
	d.OnFence(block, warp, scope)
}

// OnRelease implements the explicit release instruction: a fence of the
// same scope followed by a releasing Exch. The fence is what a later
// acquirer's happens-before check observes, so no further state is kept.
func (d *Detector) OnRelease(block, warp int, addr uint64, scope Scope) {
	if !d.cfg.AcqRel {
		return
	}
	d.OnFence(block, warp, scope)
	d.onExch(block, warp, addr, scope)
	d.s.ReleaseObserved++
}

// CheckAccess runs the full ScoRD pipeline for one memory access: metadata
// lookup (with software-cache tag check), the preliminary trivially-race-
// free checks of Table III, the lockset and happens-before conditions of
// Table IV, and the metadata update.
func (d *Detector) CheckAccess(a Access) CheckResult {
	d.s.DetectorChecks++
	if d.cfg.ITS && a.Diverged {
		d.s.DivergentAccesses++
	}
	wordIdx := int(a.Addr / 4)
	idx, e, tag, tagOK := d.store.Lookup(wordIdx)
	res := CheckResult{MetaAddr: d.store.AddrOf(idx), MetaWrite: true}

	cur := d.lockSummary(a.Block, a.Warp)

	if !tagOK {
		// Software-cache miss: the resident entry belongs to an aliasing
		// address. Detection is skipped (a potential false negative) and
		// the entry is overwritten with the current access (Section IV-B).
		d.s.MetaCacheEvicts++
		d.store.Update(idx, d.freshEntry(&a, tag, cur))
		d.noteShadow(&a)
		return res
	}

	blk7 := a.Block & 127
	w5 := a.Warp & 31

	if e.IsInit() {
		// Table III (a): first access since (re-)initialization.
		d.s.DetectorPrelimOK++
		d.store.Update(idx, d.freshEntry(&a, tag, cur))
		d.noteShadow(&a)
		return res
	}

	sameWarp := e.BlockID() == blk7 && e.WarpID() == w5
	if d.cfg.ITS && sameWarp && a.Diverged && e.Diverged() && e.Lane() != a.Lane {
		// ITS extension: within a diverged warp, different lanes are
		// independent threads (Section VI).
		sameWarp = false
	}
	sameBlock := e.BlockID() == blk7

	switch {
	case sameWarp && !e.BlkShared() && !e.DevShared():
		// Table III (b): program order.
		d.s.DetectorPrelimOK++
	case sameBlock && e.BarrierID() != a.Barrier && !e.DevShared():
		// Table III (c): a barrier separates the accesses.
		d.s.DetectorPrelimOK++
	case sameWarp:
		// Same warp with shared flags set: still program order with
		// respect to the recorded (last) access — intermediate readers
		// were checked when they executed.
	default:
		if kind, ok := d.fullCheck(&a, e, cur, sameBlock); ok {
			d.report(kind, &a, e, sameBlock, cur)
			res.Raced = true
		}
	}

	d.store.Update(idx, d.updatedEntry(&a, e, tag, cur))
	d.noteShadow(&a)
	return res
}

// noteShadow remembers which concrete instruction last wrote each
// metadata group, so evidence records can name the previous access site.
func (d *Detector) noteShadow(a *Access) {
	if !d.prov {
		return
	}
	d.shadow[d.store.GroupBase(int(a.Addr/4))] = shadowPrev{site: a.Site, cycle: a.Cycle}
}

// fullCheck applies Table IV once the preliminary checks have failed and
// the accesses are by different warps.
func (d *Detector) fullCheck(a *Access, e Entry, cur Bloom, sameBlock bool) (RaceKind, bool) {
	// Previous access was an atomic: atomics synchronize at their scope, so
	// the only hazard is insufficient scope — Table IV (d).
	if e.IsAtom() {
		if e.AtomScope() == ScopeBlock && !sameBlock {
			return RaceScopedAtomic, true
		}
		return 0, false
	}

	// Lockset path — Table IV (e)/(f): triggered when either side carries
	// lock evidence.
	if !cur.Empty() || !e.Bloom().Empty() {
		if a.Kind == KindLoad && !e.Modified() {
			return 0, false // load after load never conflicts
		}
		if !cur.Intersects(e.Bloom()) {
			if a.Kind == KindLoad {
				return RaceMissingLockLoad, true
			}
			return RaceMissingLockStore, true
		}
		return 0, false // common lock protects the pair
	}

	// Happens-before path — Table IV (a)/(b)/(c).
	if a.Kind == KindLoad && !e.Modified() {
		return 0, false
	}
	ffBlk, ffDev := d.ff.Get(e.BlockID(), e.WarpID())
	if sameBlock {
		if e.BlkFenceID() == ffBlk && e.DevFenceID() == ffDev {
			if d.cfg.ITS && e.Diverged() && a.Diverged {
				return RaceDivergedWarp, true
			}
			return RaceMissingBlockFence, true
		}
	} else if e.DevFenceID() == ffDev {
		return RaceMissingDeviceFence, true
	}
	// A fence exists, but fences only order strong operations.
	if !e.Strong() || !a.Strong {
		return RaceNotStrong, true
	}
	return 0, false
}

// freshEntry builds the metadata written by the first access after
// (re-)initialization or after a software-cache overwrite.
func (d *Detector) freshEntry(a *Access, tag uint8, cur Bloom) Entry {
	var e Entry
	e = e.WithTag(tag).
		WithBlockID(a.Block & 127).
		WithWarpID(a.Warp & 31).
		WithBarrierID(a.Barrier).
		WithBloom(cur).
		WithModified(a.Kind != KindLoad).
		WithIsAtom(a.Kind == KindAtomic).
		WithStrong(a.Strong)
	if a.Kind == KindAtomic {
		e = e.WithAtomScope(a.Scope)
	}
	ffBlk, ffDev := d.ff.Get(a.Block, a.Warp)
	e = e.WithBlkFenceID(ffBlk).WithDevFenceID(ffDev)
	if d.cfg.ITS {
		e = e.WithLane(a.Lane).WithDiverged(a.Diverged)
	}
	return e
}

// updatedEntry applies the paper's metadata update rules to an existing
// entry. Two refinements keep the (re-)initialization sentinel (all of
// Modified, BlkShared, DevShared set) unreachable during execution: loads
// clear Modified (they record "last access was a read") and stores clear
// the shared flags (they describe sharing since the last write).
func (d *Detector) updatedEntry(a *Access, e Entry, tag uint8, cur Bloom) Entry {
	if e.IsInit() {
		return d.freshEntry(a, tag, cur)
	}
	blk7 := a.Block & 127
	w5 := a.Warp & 31

	if a.Kind == KindLoad {
		if e.BlockID() != blk7 {
			e = e.WithDevShared(true)
		} else if e.WarpID() != w5 {
			e = e.WithBlkShared(true)
		}
		e = e.WithModified(false).WithIsAtom(false)
	} else {
		e = e.WithModified(true).WithBlkShared(false).WithDevShared(false)
		e = e.WithIsAtom(a.Kind == KindAtomic)
		if a.Kind == KindAtomic {
			e = e.WithAtomScope(a.Scope)
		}
	}
	if !a.Strong {
		e = e.WithStrong(false)
	}
	ffBlk, ffDev := d.ff.Get(a.Block, a.Warp)
	e = e.WithTag(tag).
		WithBlockID(blk7).
		WithWarpID(w5).
		WithBarrierID(a.Barrier).
		WithBlkFenceID(ffBlk).
		WithDevFenceID(ffDev).
		WithBloom(cur)
	if d.cfg.ITS {
		e = e.WithLane(a.Lane).WithDiverged(a.Diverged)
	}
	return e
}

func (d *Detector) report(kind RaceKind, a *Access, e Entry, sameBlock bool, cur Bloom) {
	d.s.RacesReported++
	groupAddr := uint64(d.store.GroupBase(int(a.Addr/4))) * 4
	key := recordKey{kind: kind, addr: groupAddr, site: a.Site}
	if i, ok := d.index[key]; ok {
		d.records[i].Count++
		return
	}
	if len(d.records) >= maxRecords {
		d.overflow++
		return
	}
	if d.prov {
		// First occurrence of this tuple: freeze the evidence before the
		// current access overwrites the metadata entry.
		d.evidence[key] = d.buildEvidence(kind, a, e, sameBlock, cur)
	}
	if d.index == nil {
		d.index = make(map[recordKey]int)
	}
	d.index[key] = len(d.records)
	d.records = append(d.records, Record{
		Kind:      kind,
		Addr:      groupAddr,
		SameBlock: sameBlock,
		PrevBlock: e.BlockID(),
		PrevWarp:  e.WarpID(),
		CurBlock:  a.Block,
		CurWarp:   a.Warp,
		Site:      a.Site,
		Cycle:     a.Cycle,
		Count:     1,
	})
}

// Records returns the accumulated race records, ordered by first
// occurrence.
func (d *Detector) Records() []Record {
	out := make([]Record, len(d.records))
	copy(out, d.records)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cycle < out[j].Cycle })
	return out
}

// Overflowed reports distinct races dropped after the record cap.
func (d *Detector) Overflowed() int { return d.overflow }
