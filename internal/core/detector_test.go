package core

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"scord/internal/config"
	"scord/internal/stats"
)

func newDet(mode config.DetectorMode) *Detector {
	cfg := config.Default().Detector
	cfg.Mode = mode
	return NewDetector(cfg, 1<<16, 1<<28, &stats.Stats{})
}

func acc(kind AccessKind, addr uint64, block, warp int) Access {
	return Access{Kind: kind, Addr: addr, Block: block, Warp: warp, Strong: true, Scope: ScopeDevice}
}

func lastKind(t *testing.T, d *Detector) RaceKind {
	t.Helper()
	recs := d.Records()
	if len(recs) == 0 {
		t.Fatal("no race recorded")
	}
	return recs[len(recs)-1].Kind
}

func TestFirstAccessTriviallyFree(t *testing.T) {
	d := newDet(config.ModeFull4B)
	if r := d.CheckAccess(acc(KindStore, 0x100, 0, 0)); r.Raced {
		t.Fatal("first access raced")
	}
	if d.Store().NumEntries() != 1<<16 {
		t.Fatal("full mode entry count wrong")
	}
}

func TestProgramOrderFree(t *testing.T) {
	d := newDet(config.ModeFull4B)
	for i := 0; i < 5; i++ {
		if r := d.CheckAccess(acc(KindStore, 0x100, 2, 3)); r.Raced {
			t.Fatal("program-order access raced")
		}
	}
}

func TestMissingDeviceFenceRace(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	if r := d.CheckAccess(acc(KindLoad, 0x100, 1, 0)); !r.Raced {
		t.Fatal("cross-block unfenced conflict not flagged")
	}
	if k := lastKind(t, d); k != RaceMissingDeviceFence {
		t.Fatalf("kind = %v", k)
	}
}

func TestDeviceFenceClearsRace(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	d.OnFence(0, 0, ScopeDevice)
	if r := d.CheckAccess(acc(KindLoad, 0x100, 1, 0)); r.Raced {
		t.Fatal("properly fenced access flagged")
	}
}

func TestBlockFenceInsufficientAcrossBlocks(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	d.OnFence(0, 0, ScopeBlock)
	if r := d.CheckAccess(acc(KindLoad, 0x100, 1, 0)); !r.Raced {
		t.Fatal("block fence accepted for cross-block conflict")
	}
}

func TestBlockFenceSufficientWithinBlock(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	d.OnFence(0, 0, ScopeBlock)
	if r := d.CheckAccess(acc(KindLoad, 0x100, 0, 1)); r.Raced {
		t.Fatal("block fence rejected within block")
	}
}

func TestMissingBlockFenceRace(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	if r := d.CheckAccess(acc(KindLoad, 0x100, 0, 1)); !r.Raced {
		t.Fatal("same-block unfenced conflict not flagged")
	}
	if k := lastKind(t, d); k != RaceMissingBlockFence {
		t.Fatalf("kind = %v", k)
	}
}

func TestWeakAccessRacesDespiteFence(t *testing.T) {
	d := newDet(config.ModeFull4B)
	a := acc(KindStore, 0x100, 0, 0)
	a.Strong = false
	d.CheckAccess(a)
	d.OnFence(0, 0, ScopeDevice)
	b := acc(KindLoad, 0x100, 1, 0)
	if r := d.CheckAccess(b); !r.Raced {
		t.Fatal("weak conflicting access not flagged (fences order only strong ops)")
	}
	if k := lastKind(t, d); k != RaceNotStrong {
		t.Fatalf("kind = %v", k)
	}
}

func TestBarrierSeparatesBlockAccesses(t *testing.T) {
	d := newDet(config.ModeFull4B)
	a := acc(KindStore, 0x100, 0, 0)
	a.Strong = false
	d.CheckAccess(a)
	b := acc(KindLoad, 0x100, 0, 1)
	b.Strong = false
	b.Barrier = 1 // a barrier executed in between
	if r := d.CheckAccess(b); r.Raced {
		t.Fatal("barrier-separated accesses flagged")
	}
}

func TestLoadLoadNeverConflicts(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindLoad, 0x100, 0, 0))
	if r := d.CheckAccess(acc(KindLoad, 0x100, 5, 1)); r.Raced {
		t.Fatal("load-load flagged")
	}
}

func TestScopedAtomicRace(t *testing.T) {
	d := newDet(config.ModeFull4B)
	a := acc(KindAtomic, 0x100, 0, 0)
	a.Scope = ScopeBlock
	d.CheckAccess(a)
	if r := d.CheckAccess(acc(KindAtomic, 0x100, 1, 0)); !r.Raced {
		t.Fatal("block-scope atomic vs cross-block atomic not flagged")
	}
	if k := lastKind(t, d); k != RaceScopedAtomic {
		t.Fatalf("kind = %v", k)
	}
}

func TestDeviceAtomicsRaceFree(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindAtomic, 0x100, 0, 0))
	if r := d.CheckAccess(acc(KindAtomic, 0x100, 1, 0)); r.Raced {
		t.Fatal("device atomics flagged")
	}
	// And a subsequent load synchronizes through the atomic's scope.
	if r := d.CheckAccess(acc(KindLoad, 0x100, 2, 0)); r.Raced {
		t.Fatal("load after device atomic flagged")
	}
}

func TestBlockAtomicThenCrossBlockLoad(t *testing.T) {
	d := newDet(config.ModeFull4B)
	a := acc(KindAtomic, 0x100, 0, 0)
	a.Scope = ScopeBlock
	d.CheckAccess(a)
	if r := d.CheckAccess(acc(KindLoad, 0x100, 3, 0)); !r.Raced {
		t.Fatal("cross-block load after block atomic not flagged")
	}
}

func TestLocksetCommonLockProtects(t *testing.T) {
	d := newDet(config.ModeFull4B)
	// Warp (0,0) acquires lock 0x500 and stores; warp (1,0) acquires the
	// same lock and loads: no race, even weak and unfenced.
	d.OnAtomicOp(0, 0, AtomicCAS, 0x500, ScopeDevice)
	d.OnFence(0, 0, ScopeDevice)
	w := acc(KindStore, 0x100, 0, 0)
	w.Strong = false
	d.CheckAccess(w)
	d.OnAtomicOp(0, 0, AtomicExch, 0x500, ScopeDevice)

	d.OnAtomicOp(1, 0, AtomicCAS, 0x500, ScopeDevice)
	d.OnFence(1, 0, ScopeDevice)
	r := acc(KindLoad, 0x100, 1, 0)
	r.Strong = false
	if res := d.CheckAccess(r); res.Raced {
		t.Fatal("lock-protected pair flagged")
	}
}

func TestLocksetMissingLock(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.OnAtomicOp(0, 0, AtomicCAS, 0x500, ScopeDevice)
	d.OnFence(0, 0, ScopeDevice)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	// Unlocked store from another warp.
	if res := d.CheckAccess(acc(KindStore, 0x100, 1, 0)); !res.Raced {
		t.Fatal("unlocked store vs locked store not flagged")
	}
	if k := lastKind(t, d); k != RaceMissingLockStore {
		t.Fatalf("kind = %v", k)
	}
}

func TestCachedModeTagMissSkipsDetection(t *testing.T) {
	d := newDet(config.ModeCached)
	entries := d.Store().NumEntries()
	// Two aliasing words (same slot, different tags).
	a1 := uint64(0x40) // word 16
	a2 := a1 + uint64(entries)*4
	d.CheckAccess(acc(KindStore, a1, 0, 0))
	// Aliasing access overwrites without racing.
	if r := d.CheckAccess(acc(KindStore, a2, 1, 0)); r.Raced {
		t.Fatal("tag miss raced")
	}
	// The original word's metadata is gone: the next conflicting access is
	// missed — the paper's documented false negative.
	if r := d.CheckAccess(acc(KindStore, a1, 2, 0)); r.Raced {
		t.Fatal("expected a silent false negative after aliasing eviction")
	}
}

func TestGranularityModesShareEntries(t *testing.T) {
	d := newDet(config.ModeGran16B)
	// Different words in one 16-byte group share metadata: program-order
	// stores by one warp to word 0, then another warp touches word 1 —
	// flagged even though the words are distinct (a false positive by
	// construction, Table VII).
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	if r := d.CheckAccess(acc(KindStore, 0x104, 1, 0)); !r.Raced {
		t.Fatal("16B granularity should alias neighbouring words")
	}
}

func TestMetadataOverheads(t *testing.T) {
	words := 1 << 16
	cases := []struct {
		mode config.DetectorMode
		want float64
	}{
		{config.ModeFull4B, 200},
		{config.ModeGran8B, 100},
		{config.ModeGran16B, 50},
		{config.ModeCached, 12.5},
	}
	for _, c := range cases {
		cfg := config.Default().Detector
		cfg.Mode = c.mode
		det := NewDetector(cfg, words, 0, &stats.Stats{})
		if got := det.Store().OverheadPercent(words); got != c.want {
			t.Errorf("%v overhead = %.1f%%, want %.1f%%", c.mode, got, c.want)
		}
	}
}

func TestRecordsDedupAndCount(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	for i := 0; i < 3; i++ {
		d.CheckAccess(acc(KindStore, 0x100, 1, 0))
		d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	}
	recs := d.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1 deduplicated", len(recs))
	}
	if recs[0].Count < 3 {
		t.Fatalf("count = %d, want >= 3", recs[0].Count)
	}
}

func TestResetForKernelClearsState(t *testing.T) {
	d := newDet(config.ModeFull4B)
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	d.OnFence(0, 0, ScopeDevice)
	d.ResetForKernel()
	// Post-reset, the same location is first-access again.
	if r := d.CheckAccess(acc(KindStore, 0x100, 5, 0)); r.Raced {
		t.Fatal("metadata survived kernel reset")
	}
}

func TestITSDivergedLanesConflict(t *testing.T) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	cfg.ITS = true
	d := NewDetector(cfg, 1<<16, 0, &stats.Stats{})
	a := acc(KindStore, 0x100, 0, 0)
	a.Diverged, a.Lane = true, 3
	d.CheckAccess(a)
	b := acc(KindStore, 0x100, 0, 0)
	b.Diverged, b.Lane = true, 9
	if r := d.CheckAccess(b); !r.Raced {
		t.Fatal("diverged-lane conflict not flagged with ITS on")
	}
	if k := lastKind(t, d); k != RaceDivergedWarp {
		t.Fatalf("kind = %v", k)
	}
}

func TestITSOffIgnoresLanes(t *testing.T) {
	d := newDet(config.ModeFull4B)
	a := acc(KindStore, 0x100, 0, 0)
	a.Diverged, a.Lane = true, 3
	d.CheckAccess(a)
	b := acc(KindStore, 0x100, 0, 0)
	b.Diverged, b.Lane = true, 9
	if r := d.CheckAccess(b); r.Raced {
		t.Fatal("lane conflict flagged with ITS off (same warp is program order)")
	}
}

func TestAcquireReleaseExtension(t *testing.T) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	cfg.AcqRel = true
	d := NewDetector(cfg, 1<<16, 0, &stats.Stats{})
	// Release composes fence+exch, so a subsequent cross-block conflict
	// sees the fence.
	d.CheckAccess(acc(KindStore, 0x100, 0, 0))
	d.OnRelease(0, 0, 0x500, ScopeDevice)
	if r := d.CheckAccess(acc(KindLoad, 0x100, 1, 0)); r.Raced {
		t.Fatal("release did not order prior store")
	}
}

// TestAccessSize pins Access's packed layout: a new field among the
// one-byte ones would re-pad every replayed access and simulated lane.
func TestAccessSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Access{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Access{}) = %d, want 64", got)
	}
}

// TestLockTablesMadeOnCAS: only a CAS makes a block's lock tables. A
// fence, an Exch or a release on a warp of a block without tables makes
// none, and a kernel start zeroes the tables that exist in place.
func TestLockTablesMadeOnCAS(t *testing.T) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	cfg.AcqRel = true
	d := NewDetector(cfg, 1<<16, 0, &stats.Stats{})
	d.OnFence(65535, 3, ScopeDevice)
	d.OnAtomicOp(65535, 3, AtomicExch, 0x40, ScopeDevice)
	d.OnAtomicOp(65535, 3, AtomicRelease, 0x40, ScopeDevice)
	d.CheckAccess(acc(KindStore, 0x100, 65535, 3))
	if len(d.locks) != 0 {
		t.Fatalf("fence, Exch, release and access made a %d-block lock directory, want none", len(d.locks))
	}
	d.OnAtomicOp(4, 70, AtomicCAS, 0x40, ScopeDevice)
	if len(d.locks) != 5 || d.locks[4] == nil {
		t.Fatalf("a CAS on block 4 made a %d-block directory, want 5 with block 4's tables", len(d.locks))
	}
	d.OnFence(4, 6, ScopeDevice) // warp 70 keys as 70 & 63 = 6
	if d.lockSummary(4, 70).Empty() || d.lockSummary(4, 6).Empty() {
		t.Fatal("CAS then fence left warp 70 (key 6) without an active lock")
	}
	tables := d.locks[4]
	d.ResetForKernel()
	if d.locks[4] != tables || *tables != (blockLocks{}) {
		t.Fatal("kernel start did not zero block 4's lock tables in place")
	}
}

// TestLazyLockTablesMatchEager drives the detector and a reference that
// keeps a lock table for every warp it hears of through the same seeded
// stream of CAS, Exch, fences, releases, accesses and kernel starts, and
// compares every warp's lock summary after each call.
func TestLazyLockTablesMatchEager(t *testing.T) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	cfg.AcqRel = true
	for seed := int64(1); seed <= 3; seed++ {
		d := NewDetector(cfg, 1<<16, 0, &stats.Stats{})
		ref := map[[2]int]*LockTable{}
		table := func(block, warp int) *LockTable {
			k := [2]int{block, warp & 63}
			if ref[k] == nil {
				ref[k] = &LockTable{}
			}
			return ref[k]
		}
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 5000; step++ {
			block, warp := rng.Intn(6), rng.Intn(70)
			addr := uint64(rng.Intn(8)) * 4
			scope := ScopeDevice
			if rng.Intn(2) == 0 {
				scope = ScopeBlock
			}
			switch rng.Intn(12) {
			case 0:
				d.ResetForKernel()
				clear(ref)
			case 1, 2, 3:
				d.OnAtomicOp(block, warp, AtomicCAS, addr, scope)
				table(block, warp).OnCAS(addr, scope)
			case 4, 5:
				d.OnAtomicOp(block, warp, AtomicExch, addr, scope)
				table(block, warp).OnExch(addr, scope)
			case 6, 7, 8:
				d.OnFence(block, warp, scope)
				table(block, warp).OnFence(scope)
			case 9:
				d.OnRelease(block, warp, addr, scope)
				table(block, warp).OnFence(scope)
				table(block, warp).OnExch(addr, scope)
			default:
				d.CheckAccess(acc(KindStore, 0x100+addr, block, warp))
			}
			for b := 0; b < 6; b++ {
				for w := 0; w < 64; w++ {
					var want Bloom
					if lt := ref[[2]int{b, w}]; lt != nil {
						want = lt.Summary()
					}
					if got := d.lockSummary(b, w); got != want {
						t.Fatalf("seed %d step %d: b%d/w%d summary %#x, reference %#x", seed, step, b, w, got, want)
					}
				}
			}
		}
	}
}

// TestNewDetectorAllocBytes gates what building a base-design detector
// for the default 2 MB arena and starting a kernel on it allocates, at
// 1 KB: the detector and its metadata store, with no page directory,
// fence file or lock table until a trace touches them. The dense page
// directory, inline fence file and release-file maps made it 19,200
// bytes.
func TestNewDetectorAllocBytes(t *testing.T) {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	var st stats.Stats
	const n = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range n {
		d := NewDetector(cfg, 1<<19, 1<<21, &st)
		d.ResetForKernel()
		benchDet = d
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d bytes per detector", per)
	if per > 1024 {
		t.Errorf("NewDetector plus ResetForKernel allocated %d bytes, want at most 1 KB", per)
	}
}
