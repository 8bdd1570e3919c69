package mem

import (
	"testing"
	"testing/quick"
)

func TestAllocAlignmentAndNaming(t *testing.T) {
	m := New(1 << 16)
	a := m.Alloc("first", 10)
	b := m.Alloc("second", 200)
	if a%128 != 0 || b%128 != 0 {
		t.Fatalf("allocations not 128-byte aligned: %#x %#x", a, b)
	}
	if al, ok := m.Locate(b + 4); !ok || al.Name != "second" {
		t.Fatalf("Locate(second+4) = %+v, %v", al, ok)
	}
	if _, ok := m.Locate(Addr(1 << 15)); ok {
		t.Fatal("Locate matched unallocated address")
	}
	if s := m.Describe(b + 8); s != "second+0x8" {
		t.Fatalf("Describe = %q", s)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New(4096)
	a := m.Alloc("x", 64)
	m.Write(a+8, 0xdeadbeef)
	if v := m.Read(a + 8); v != 0xdeadbeef {
		t.Fatalf("read %#x", v)
	}
}

func TestHostHelpers(t *testing.T) {
	m := New(4096)
	a := m.AllocWords("arr", 16)
	m.HostWrite(a, []uint32{1, 2, 3, 4})
	if got := m.HostRead(a, 4); got[0] != 1 || got[3] != 4 {
		t.Fatalf("HostRead = %v", got)
	}
	m.HostFill(a, 16, 9)
	if m.Read(a+60) != 9 {
		t.Fatal("HostFill did not reach last word")
	}
}

func TestResetClears(t *testing.T) {
	m := New(4096)
	a := m.Alloc("x", 8)
	m.Write(a, 5)
	m.Reset()
	if m.Used() != 0 || m.Read(0) != 0 {
		t.Fatal("Reset did not clear arena")
	}
	if _, ok := m.Locate(a); ok {
		t.Fatal("allocation survived Reset")
	}
}

func TestOutOfMemoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	m := New(256)
	m.Alloc("big", 512)
}

// Property: distinct allocations never overlap and all stay in bounds.
func TestAllocDisjointProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		m := New(1 << 20)
		type span struct{ lo, hi uint64 }
		var spans []span
		total := uint64(0)
		for i, s := range sizes {
			sz := uint64(s)%512 + 4
			if total+sz+128 > m.Size() {
				break
			}
			a := m.Alloc(string(rune('a'+i%26)), sz)
			spans = append(spans, span{uint64(a), uint64(a) + sz})
			total += sz + 128
		}
		for i := range spans {
			if spans[i].hi > m.Size() {
				return false
			}
			for j := i + 1; j < len(spans); j++ {
				if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMapMatchesArena checks that an allocation map places, names and
// resolves allocations exactly as a full arena does, holds no words, and
// panics on a data access.
func TestMapMatchesArena(t *testing.T) {
	const size = 2 << 20
	arena, m := New(size), NewMap(size)
	for i, n := range []uint64{10, 200, 4096, 4} {
		name := string(rune('a' + i))
		if a, b := arena.Alloc(name, n), m.Alloc(name, n); a != b {
			t.Fatalf("Alloc(%q) = %#x on the map, %#x on the arena", name, b, a)
		}
	}
	if m.Size() != arena.Size() || m.Used() != arena.Used() || m.Words() != 0 {
		t.Fatalf("map size/used/words = %d/%d/%d, arena %d/%d", m.Size(), m.Used(), m.Words(), arena.Size(), arena.Used())
	}
	for a := Addr(0); a < Addr(arena.Used()+256); a += 60 {
		if got, want := m.Describe(a), arena.Describe(a); got != want {
			t.Fatalf("Describe(%#x) = %q, arena %q", a, got, want)
		}
	}
	if al, ok := m.FindAlloc("c"); !ok || al.Size != 4096 {
		t.Fatalf("FindAlloc(c) = %+v, %v", al, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Read on an allocation map did not panic")
		}
	}()
	m.Read(0)
}
