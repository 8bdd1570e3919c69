package replay_test

import (
	"bytes"
	"runtime"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// highBlockTrace encodes a launch of a 65,536-block grid, one allocation
// and a device fence by warp 0 of block 65,535. With cas set, a device
// atomicCAS by the same warp on the allocation comes before the fence.
func highBlockTrace(tb testing.TB, cas bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("high-block", nil, config.Default().WithDetector(config.ModeFull4B)))
	if err != nil {
		tb.Fatal(err)
	}
	tw.KernelStart("k", 65536, 32, 0)
	tw.Alloc("lock", 0, 4)
	if cas {
		tw.Access(core.Access{Kind: core.KindAtomic, Scope: core.ScopeDevice, Strong: true, Block: 65535, Cycle: 1}, core.AtomicCAS, 4)
	}
	tw.Fence(65535, 0, core.ScopeDevice, 2, false)
	if err := tw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFenceOnHighBlockAllocs replays a fence on block 65,535 under all
// five models. Detector state is made on first use, so the fence costs
// at most one fence-file row per model, and a CAS before it one 8-byte
// lock-directory slot per block up to it plus the block's tables. A
// dense lock table up to the block took 134 MB per detector-backed
// model, 537 MB in all.
func TestFenceOnHighBlockAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cas   bool
		limit uint64
	}{
		{"fence", false, 1 << 20},
		{"cas-then-fence", true, 4 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw := highBlockTrace(t, tc.cas)
			tr, err := tracefile.NewReader(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			ops, err := tr.ReadAll()
			if err != nil {
				t.Fatal(err)
			}
			h := tr.Header()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, name := range replay.TargetNames() {
				tg, err := replay.TargetByName(name, h.Config)
				if err != nil {
					t.Fatal(err)
				}
				res, err := replay.RunOps(h, ops, tg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Ops != len(ops) || res.Kernels != 1 {
					t.Fatalf("%s replayed %d ops and %d kernels, want %d and 1", name, res.Ops, res.Kernels, len(ops))
				}
			}
			runtime.ReadMemStats(&after)
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%d-byte trace: %d bytes allocated under all five models", len(raw), alloc)
			if alloc >= tc.limit {
				t.Errorf("replaying a %s on block 65,535 under all five models allocated %d bytes, want under %d", tc.name, alloc, tc.limit)
			}
		})
	}
}
