package detectors

import (
	"testing"

	"scord/internal/core"
)

// words sizes the models for the default 2 MB device arena.
const words = 1 << 19

func access(kind core.AccessKind, addr uint64, block int, scope core.Scope) core.Access {
	return core.Access{Kind: kind, Addr: addr, Block: block, Scope: scope, Strong: true}
}

// TestHAccRGMissesScopedFence: a block-scope fence looks like a device
// fence to a scope-blind detector, so the scoped fence race goes unseen.
func TestHAccRGMissesScopedFence(t *testing.T) {
	h := NewHAccRG(words)
	h.OnKernelStart()
	h.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
	h.OnFence(0, 0, core.ScopeBlock) // insufficient, but HAccRG can't tell
	h.OnAccess(access(core.KindLoad, 0x100, 1, core.ScopeDevice))
	if len(h.Records()) != 0 {
		t.Fatalf("scope-blind model unexpectedly caught the scoped fence race: %v", h.Records())
	}

	// Barracuda honors fence scopes and does catch it.
	b := NewBarracuda(words)
	b.OnKernelStart()
	b.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
	b.OnFence(0, 0, core.ScopeBlock)
	b.OnAccess(access(core.KindLoad, 0x100, 1, core.ScopeDevice))
	if len(b.Records()) == 0 {
		t.Fatal("Barracuda model missed the scoped fence race")
	}
}

// TestBarracudaMissesScopedAtomic: atomic scopes are invisible to the
// Barracuda/CURD models.
func TestBarracudaMissesScopedAtomic(t *testing.T) {
	for _, mk := range []func(int) core.Checker{NewBarracuda, NewCURD, NewHAccRG} {
		m := mk(words)
		m.OnKernelStart()
		m.OnAccess(access(core.KindAtomic, 0x100, 0, core.ScopeBlock))
		m.OnAccess(access(core.KindAtomic, 0x100, 1, core.ScopeBlock))
		if len(m.Records()) != 0 {
			t.Fatalf("%s unexpectedly caught a scoped atomic race", m.Name())
		}
	}
}

// TestModelsCatchPlainMissingFence: all happens-before models catch an
// unsynchronized cross-block conflict.
func TestModelsCatchPlainMissingFence(t *testing.T) {
	for _, mk := range []func(int) core.Checker{NewHAccRG, NewBarracuda, NewCURD} {
		m := mk(words)
		m.OnKernelStart()
		m.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
		m.OnAccess(access(core.KindLoad, 0x100, 1, core.ScopeDevice))
		if len(m.Records()) == 0 {
			t.Fatalf("%s missed a plain missing-fence race", m.Name())
		}
	}
}

func TestLDetectorWriteWriteOnly(t *testing.T) {
	l := NewLDetector()
	l.OnKernelStart()
	// Read-write conflicts are invisible to snapshot diffing.
	l.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
	l.OnAccess(access(core.KindLoad, 0x100, 1, core.ScopeDevice))
	if len(l.Records()) != 0 {
		t.Fatal("LDetector model saw a read")
	}
	// Write-write conflicts are caught.
	l.OnAccess(access(core.KindStore, 0x100, 1, core.ScopeDevice))
	if len(l.Records()) != 1 {
		t.Fatalf("LDetector records = %d, want 1", len(l.Records()))
	}
	// ...and deduplicated per address.
	l.OnAccess(access(core.KindStore, 0x100, 2, core.ScopeDevice))
	if len(l.Records()) != 1 {
		t.Fatal("LDetector did not dedup per address")
	}
}

func TestLDetectorIgnoresLocks(t *testing.T) {
	l := NewLDetector()
	l.OnKernelStart()
	// Two properly locked writers still look racy to snapshot diffing —
	// the false-positive weakness Table VIII implies.
	l.OnAtomicOp(0, 0, core.AtomicCAS, 0x500, core.ScopeDevice)
	l.OnFence(0, 0, core.ScopeDevice)
	l.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
	l.OnAtomicOp(1, 0, core.AtomicCAS, 0x500, core.ScopeDevice)
	l.OnFence(1, 0, core.ScopeDevice)
	l.OnAccess(access(core.KindStore, 0x100, 1, core.ScopeDevice))
	if len(l.Records()) == 0 {
		t.Fatal("LDetector model unexpectedly honors locks")
	}
}

func TestKernelStartResets(t *testing.T) {
	l := NewLDetector()
	l.OnKernelStart()
	l.OnAccess(access(core.KindStore, 0x100, 0, core.ScopeDevice))
	l.OnKernelStart() // kernel boundary synchronizes
	l.OnAccess(access(core.KindStore, 0x100, 1, core.ScopeDevice))
	if len(l.Records()) != 0 {
		t.Fatal("cross-kernel writes flagged")
	}
}

func TestAllReturnsFourModels(t *testing.T) {
	models := All(words)
	if len(models) != 4 {
		t.Fatalf("All() = %d models, want 4", len(models))
	}
	want := map[string]bool{"LDetector": true, "HAccRG": true, "Barracuda": true, "CURD": true}
	for _, m := range models {
		if !want[m.Name()] {
			t.Fatalf("unexpected model %q", m.Name())
		}
	}
}
