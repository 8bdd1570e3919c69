package gpu

import (
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/mem"
)

func newDev(t *testing.T, cfg config.Config) *Device {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestVectorAddKernel(t *testing.T) {
	d := newDev(t, config.Default())
	const n = 4096
	a := d.Alloc("a", n)
	b := d.Alloc("b", n)
	out := d.Alloc("out", n)
	for i := 0; i < n; i++ {
		d.Mem().Write(a+mem.Addr(i*4), uint32(i))
		d.Mem().Write(b+mem.Addr(i*4), uint32(2*i))
	}
	blocks, tpb := 8, 256
	warpsTotal := blocks * tpb / 32
	perWarp := n / warpsTotal

	err := d.Launch("vadd", blocks, tpb, func(c *Ctx) {
		base := c.GlobalWarp() * perWarp
		addrsA := make([]mem.Addr, perWarp)
		for i := range addrsA {
			addrsA[i] = a + mem.Addr((base+i)*4)
		}
		va := append([]uint32(nil), c.LoadVec(addrsA, false)...)
		for i := range addrsA {
			addrsA[i] = b + mem.Addr((base+i)*4)
		}
		vb := c.LoadVec(addrsA, false)
		for i := range va {
			va[i] += vb[i]
		}
		for i := range addrsA {
			addrsA[i] = out + mem.Addr((base+i)*4)
		}
		c.StoreVec(addrsA, va, false)
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for i := 0; i < n; i++ {
		if got := d.Mem().Read(out + mem.Addr(i*4)); got != uint32(3*i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 3*i)
		}
	}
	if d.Stats().Cycles == 0 || d.Stats().MemOps == 0 {
		t.Fatalf("stats not collected: %+v", d.Stats())
	}
}

func TestDeterministicCycles(t *testing.T) {
	run := func() uint64 {
		d := newDev(t, config.Default())
		x := d.Alloc("x", 1024)
		err := d.Launch("k", 6, 128, func(c *Ctx) {
			for i := 0; i < 32; i++ {
				c.AtomicAdd(x+mem.Addr((c.GlobalWarp()%256)*4), 1, ScopeDevice)
			}
		})
		if err != nil {
			t.Fatalf("Launch: %v", err)
		}
		return d.Stats().Cycles
	}
	c1, c2 := run(), run()
	if c1 != c2 {
		t.Fatalf("nondeterministic: %d vs %d cycles", c1, c2)
	}
}

func TestBarrierSynchronizesBlock(t *testing.T) {
	d := newDev(t, config.Default())
	buf := d.Alloc("buf", 64)
	sum := d.Alloc("sum", 8)
	// Warp w writes buf[w], barrier, warp 0 sums all.
	err := d.Launch("bar", 2, 128, func(c *Ctx) {
		c.Store(buf+mem.Addr((c.Block*4+c.Warp)*4), uint32(c.Warp+1))
		c.SyncThreads()
		if c.Warp == 0 {
			total := uint32(0)
			for w := 0; w < 4; w++ {
				total += c.Load(buf + mem.Addr((c.Block*4+w)*4))
			}
			c.Store(sum+mem.Addr(c.Block*4), total)
		}
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	for blk := 0; blk < 2; blk++ {
		if got := d.Mem().Read(sum + mem.Addr(blk*4)); got != 10 {
			t.Fatalf("block %d sum = %d, want 10", blk, got)
		}
	}
}

func TestDeviceAtomicsSumCorrectly(t *testing.T) {
	d := newDev(t, config.Default())
	x := d.Alloc("x", 1)
	const blocks, tpb, per = 10, 64, 7
	err := d.Launch("atom", blocks, tpb, func(c *Ctx) {
		for i := 0; i < per; i++ {
			c.AtomicAdd(x, 1, ScopeDevice)
		}
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	want := uint32(blocks * tpb / 32 * per)
	if got := d.Mem().Read(x); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestBlockAtomicIsSMLocalAndRaces(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d := newDev(t, cfg)
	x := d.Alloc("ctr", 1)
	// Two blocks, necessarily on different SMs, each block-atomically
	// increments the same counter: a scoped-atomic race, and the updates
	// are not mutually visible.
	err := d.Launch("scoped", 2, 32, func(c *Ctx) {
		c.Site("ctr.blockAdd")
		for i := 0; i < 4; i++ {
			c.AtomicAdd(x, 1, ScopeBlock)
		}
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	recs := d.Races()
	found := false
	for _, r := range recs {
		if r.Kind == core.RaceScopedAtomic {
			found = true
		}
	}
	if !found {
		t.Fatalf("scoped-atomic race not detected; records: %v", recs)
	}
	// Lost updates: final value below 8 proves the block atomics were
	// SM-local (each SM's L1 copy flushed at kernel end, last writer wins).
	if got := d.Mem().Read(x); got == 8 {
		t.Fatalf("block-scope atomics unexpectedly globally coherent (got %d)", got)
	}
}

func TestDeviceAtomicsDoNotRace(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d := newDev(t, cfg)
	x := d.Alloc("ctr", 1)
	err := d.Launch("ok", 4, 64, func(c *Ctx) {
		c.AtomicAdd(x, 1, ScopeDevice)
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if recs := d.Races(); len(recs) != 0 {
		for _, r := range recs {
			t.Errorf("false positive: %s", d.DescribeRecord(r))
		}
	}
}

func TestWeakStoreNeedsDeviceFence(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d := newDev(t, cfg)
	data := d.Alloc("data", 1)
	flag := d.Alloc("flag", 1)
	// Producer (block 0): volatile store data, device fence, atomic flag.
	// Consumer (block 1): spin on flag, then volatile load data.
	err := d.Launch("handshake", 2, 32, func(c *Ctx) {
		if c.Block == 0 {
			c.StoreV(data, 42)
			c.Fence(ScopeDevice)
			c.AtomicExch(flag, 1, ScopeDevice)
		} else {
			// Spin with an atomic read (atomicAdd of 0): sync variables
			// are accessed atomically on both sides, as ScoRD expects.
			for c.AtomicAdd(flag, 0, ScopeDevice) != 1 {
				c.Work(20)
			}
			if v := c.LoadV(data); v != 42 {
				panic("consumer saw stale data")
			}
		}
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	if recs := d.Races(); len(recs) != 0 {
		for _, r := range recs {
			t.Errorf("false positive: %s", d.DescribeRecord(r))
		}
	}
}

func TestBlockFenceInsufficientAcrossBlocks(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d := newDev(t, cfg)
	data := d.Alloc("data", 1)
	flag := d.Alloc("flag", 1)
	err := d.Launch("badfence", 2, 32, func(c *Ctx) {
		if c.Block == 0 {
			c.Site("data.store")
			c.StoreV(data, 42)
			c.Fence(ScopeBlock) // insufficient: consumer is another block
			c.AtomicExch(flag, 1, ScopeDevice)
		} else {
			for c.AtomicAdd(flag, 0, ScopeDevice) != 1 {
				c.Work(20)
			}
			c.Site("data.load")
			c.LoadV(data)
		}
	})
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	var kinds []core.RaceKind
	for _, r := range d.Races() {
		kinds = append(kinds, r.Kind)
	}
	found := false
	for _, k := range kinds {
		if k == core.RaceMissingDeviceFence {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing-device-fence race not detected; got %v", kinds)
	}
}

// TestKernelLogDeltas: per-launch statistics are deltas, not cumulative.
func TestKernelLogDeltas(t *testing.T) {
	d := newDev(t, config.Default())
	x := d.Alloc("x", 64)
	for i := 0; i < 2; i++ {
		if err := d.Launch("k", 1, 32, func(c *Ctx) {
			c.LoadVec(c.Seq(x, 32), false)
		}); err != nil {
			t.Fatal(err)
		}
	}
	log := d.KernelLog()
	if len(log) != 2 {
		t.Fatalf("kernel log has %d entries", len(log))
	}
	for i, k := range log {
		if k.Name != "k" || k.Blocks != 1 || k.Threads != 32 {
			t.Fatalf("entry %d geometry: %+v", i, k)
		}
		if k.Stats.MemOps != 1 {
			t.Fatalf("entry %d memOps = %d, want 1 (delta, not cumulative)", i, k.Stats.MemOps)
		}
		if k.Cycles == 0 {
			t.Fatalf("entry %d has zero cycles", i)
		}
	}
}
