package core

import "testing"

func TestAcquirePattern(t *testing.T) {
	var lt LockTable
	lt.OnCAS(0x100, ScopeDevice)
	if lt.Held() != 0 {
		t.Fatal("lock active before fence")
	}
	lt.OnFence(ScopeDevice)
	if lt.Held() != 1 {
		t.Fatal("device fence did not activate device lock")
	}
	if lt.Summary().Empty() {
		t.Fatal("summary empty with active lock")
	}
}

func TestBlockFenceDoesNotActivateDeviceLock(t *testing.T) {
	var lt LockTable
	lt.OnCAS(0x100, ScopeDevice)
	lt.OnFence(ScopeBlock)
	if lt.Held() != 0 {
		t.Fatal("block fence activated a device-scope acquire")
	}
	// A device fence activates both scopes.
	lt.OnCAS(0x200, ScopeBlock)
	lt.OnFence(ScopeDevice)
	if lt.Held() != 2 {
		t.Fatalf("device fence activated %d locks, want 2", lt.Held())
	}
}

func TestReleasePattern(t *testing.T) {
	var lt LockTable
	lt.OnCAS(0x100, ScopeDevice)
	lt.OnFence(ScopeDevice)
	lt.OnExch(0x100, ScopeDevice)
	if lt.Held() != 0 {
		t.Fatal("Exch did not release")
	}
}

func TestExchScopeMismatchKeepsLock(t *testing.T) {
	var lt LockTable
	lt.OnCAS(0x100, ScopeDevice)
	lt.OnFence(ScopeDevice)
	lt.OnExch(0x100, ScopeBlock) // wrong-scope release
	if lt.Held() != 1 {
		t.Fatal("wrong-scope Exch released the lock")
	}
}

func TestSpinDoesNotFloodTable(t *testing.T) {
	var lt LockTable
	for i := 0; i < 10; i++ {
		lt.OnCAS(0x100, ScopeDevice) // retrying acquire loop
	}
	lt.OnCAS(0x200, ScopeDevice)
	lt.OnCAS(0x300, ScopeDevice)
	lt.OnCAS(0x400, ScopeDevice)
	lt.OnFence(ScopeDevice)
	if lt.Held() != 4 {
		t.Fatalf("held %d locks, want 4 (spin must not evict)", lt.Held())
	}
}

func TestCircularOverwrite(t *testing.T) {
	var lt LockTable
	for i := 0; i < 5; i++ {
		lt.OnCAS(uint64(0x100*(i+1)), ScopeDevice)
	}
	lt.OnFence(ScopeDevice)
	if lt.Held() != 4 {
		t.Fatalf("held %d, want 4 (oldest entry overwritten)", lt.Held())
	}
}

func TestFenceFileScopes(t *testing.T) {
	var ff FenceFile
	b0, d0 := ff.Get(3, 7)
	ff.OnFence(3, 7, ScopeBlock)
	b1, d1 := ff.Get(3, 7)
	if b1 != (b0+1)&fenceIDMask || d1 != d0 {
		t.Fatal("block fence must bump only the block counter")
	}
	ff.OnFence(3, 7, ScopeDevice)
	b2, d2 := ff.Get(3, 7)
	if b2 != b1 || d2 != (d1+1)&fenceIDMask {
		t.Fatal("device fence must bump only the device counter")
	}
	// Other warps unaffected.
	if b, d := ff.Get(3, 8); b != 0 || d != 0 {
		t.Fatal("fence leaked to another warp")
	}
}

func TestFenceIDWraparound(t *testing.T) {
	var ff FenceFile
	for i := 0; i < 1<<fenceIDBits; i++ {
		ff.OnFence(0, 0, ScopeBlock)
	}
	if b, _ := ff.Get(0, 0); b != 0 {
		t.Fatalf("counter did not wrap: %d", b)
	}
}

// TestFenceFileGrowsByRow: a row is grown on its slot's first fence, a
// slot past the grown rows reads zero counters, the block ID aliases on
// its low seven bits, and Reset zeroes the rows that exist.
func TestFenceFileGrowsByRow(t *testing.T) {
	var ff FenceFile
	if b, d := ff.Get(127, 31); b != 0 || d != 0 || len(ff.rows) != 0 {
		t.Fatalf("empty file reads (%d, %d) with %d rows, want (0, 0) and none", b, d, len(ff.rows))
	}
	ff.OnFence(2, 5, ScopeDevice)
	if len(ff.rows) != 3 {
		t.Fatalf("a fence on block 2 grew %d rows, want 3", len(ff.rows))
	}
	if _, d := ff.Get(130, 5); d != 1 {
		t.Fatalf("block 130 reads device counter %d, want block 2's 1 (slot = block & 127)", d)
	}
	ff.OnFence(65535, 0, ScopeBlock)
	if len(ff.rows) != 128 {
		t.Fatalf("a fence on block 65,535 grew %d rows, want 128", len(ff.rows))
	}
	if b, _ := ff.Get(127, 0); b != 1 {
		t.Fatalf("block 127 reads block counter %d, want block 65,535's 1", b)
	}
	ff.Reset()
	for _, bw := range [][2]int{{2, 5}, {127, 0}} {
		if b, d := ff.Get(bw[0], bw[1]); b != 0 || d != 0 {
			t.Errorf("after Reset b%d/w%d reads (%d, %d), want (0, 0)", bw[0], bw[1], b, d)
		}
	}
}
