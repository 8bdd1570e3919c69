package core

import (
	"math/rand"
	"runtime"
	"testing"

	"scord/internal/config"
)

// denseStore is the reference MetaStore: every logical entry held in one
// slice, and Reset rewriting all of them. The paged store must be
// indistinguishable from it through Lookup, Update, Reset and AddrOf.
type denseStore struct {
	mode     config.DetectorMode
	entries  []Entry
	grpShift uint
	metaBase uint64
}

func newDenseStore(mode config.DetectorMode, totalWords, cacheRatio int, metaBase uint64) *denseStore {
	s := &denseStore{mode: mode, metaBase: metaBase}
	switch mode {
	case config.ModeFull4B:
		s.entries = make([]Entry, totalWords)
	case config.ModeCached:
		s.entries = make([]Entry, max(totalWords/cacheRatio, 1))
	case config.ModeGran8B:
		s.grpShift = 1
		s.entries = make([]Entry, (totalWords+1)/2)
	case config.ModeGran16B:
		s.grpShift = 2
		s.entries = make([]Entry, (totalWords+3)/4)
	}
	s.reset()
	return s
}

func (s *denseStore) reset() {
	for i := range s.entries {
		s.entries[i] = InitEntry
	}
}

func (s *denseStore) lookup(wordIdx int) (idx int, e Entry, tag uint8, tagOK bool) {
	if s.mode == config.ModeCached {
		idx, tag = wordIdx%len(s.entries), uint8(wordIdx/len(s.entries))&0xF
	} else {
		idx = wordIdx >> s.grpShift
	}
	e = s.entries[idx]
	tagOK = s.mode != config.ModeCached || e.IsInit() || e.Tag() == tag
	return idx, e, tag, tagOK
}

func (s *denseStore) addrOf(idx int) uint64 { return s.metaBase + uint64(idx)*8 }

// TestPagedStoreMatchesDense drives the paged store and the dense
// reference through the same seeded Lookup/Update/Reset sequence in every
// storage mode, over an arena whose last page is partial, and compares
// every lookup and modelled address.
func TestPagedStoreMatchesDense(t *testing.T) {
	const totalWords = 3*pageLen*16 + 37
	const metaBase = 1 << 21
	modes := []config.DetectorMode{config.ModeFull4B, config.ModeCached, config.ModeGran8B, config.ModeGran16B}
	for _, mode := range modes {
		for seed := int64(1); seed <= 3; seed++ {
			paged := NewMetaStore(mode, totalWords, 16, metaBase)
			dense := newDenseStore(mode, totalWords, 16, metaBase)
			if paged.NumEntries() != len(dense.entries) {
				t.Fatalf("%v: %d entries, dense reference has %d", mode, paged.NumEntries(), len(dense.entries))
			}
			rng := rand.New(rand.NewSource(seed))
			hot := make([]int, 64)
			for i := range hot {
				hot[i] = rng.Intn(totalWords)
			}
			word := func() int {
				if rng.Intn(10) < 7 {
					return hot[rng.Intn(len(hot))]
				}
				return rng.Intn(totalWords)
			}
			check := func(step, w int) (int, uint8) {
				idx, e, tag, ok := paged.Lookup(w)
				ridx, re, rtag, rok := dense.lookup(w)
				if idx != ridx || e != re || tag != rtag || ok != rok {
					t.Fatalf("%v seed %d step %d word %d: paged (%d, %#x, %d, %v), dense (%d, %#x, %d, %v)",
						mode, seed, step, w, idx, uint64(e), tag, ok, ridx, uint64(re), rtag, rok)
				}
				if paged.AddrOf(idx) != dense.addrOf(ridx) {
					t.Fatalf("%v step %d: AddrOf(%d) = %#x, dense %#x", mode, step, idx, paged.AddrOf(idx), dense.addrOf(ridx))
				}
				return idx, tag
			}
			sweep := func(step int) {
				for w := 0; w < totalWords; w++ {
					check(step, w)
				}
			}
			for step := 0; step < 20000; step++ {
				switch r := rng.Intn(200); {
				case r == 0:
					paged.Reset()
					dense.reset()
					sweep(step)
				case r < 100:
					check(step, word())
				default:
					idx, tag := check(step, word())
					var e Entry
					switch rng.Intn(8) {
					case 0:
						e = InitEntry
					case 1:
						e = Entry(rng.Uint64())
					default:
						e = Entry(rng.Uint64() &^ uint64(InitEntry)).WithTag(tag)
					}
					paged.Update(idx, e)
					dense.entries[idx] = e
				}
			}
			sweep(-1)
		}
	}
}

// TestMetaStoreCostsTouchedPages checks that a store for a 16 MB arena
// costs its page directory, not 32 MB of entries, and that Reset hands
// pages back for the next kernel rather than to the allocator.
func TestMetaStoreCostsTouchedPages(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewMetaStore(config.ModeFull4B, 1<<22, 16, 0)
	s.Update(7, InitEntry.WithTag(3))
	s.Reset()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
		t.Errorf("building and resetting a 1<<22-word store allocated %d bytes, want < 128 KB", got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Update(1<<21, InitEntry.WithTag(5))
		s.Reset()
	}); allocs != 0 {
		t.Errorf("Update after Reset allocates %.1f times, want 0 (page reuse)", allocs)
	}
	if _, e, _, _ := s.Lookup(1 << 21); e != InitEntry {
		t.Errorf("entry after Reset = %#x, want InitEntry", uint64(e))
	}
}

// TestMetaStoreDirectoryGrowsToHighestWrite: the page directory starts
// empty and grows only to the highest page written; a lookup past it
// reads InitEntry at the index and modelled address of the dense table.
func TestMetaStoreDirectoryGrowsToHighestWrite(t *testing.T) {
	const metaBase = 1 << 21
	s := NewMetaStore(config.ModeFull4B, 1<<19, 16, metaBase)
	if len(s.pages) != 0 {
		t.Fatalf("a fresh store has a %d-page directory, want none", len(s.pages))
	}
	s.Update(3*pageLen+1, InitEntry.WithTag(1))
	if len(s.pages) != 4 {
		t.Fatalf("a write to page 3 grew the directory to %d pages, want 4", len(s.pages))
	}
	last := 1<<19 - 1
	idx, e, _, ok := s.Lookup(last)
	if idx != last || e != InitEntry || !ok || s.AddrOf(idx) != metaBase+uint64(last)*8 {
		t.Errorf("Lookup(%d) past the directory = (%d, %#x, %v) at %#x, want InitEntry at index %d",
			last, idx, uint64(e), ok, s.AddrOf(idx), last)
	}
	s.Reset()
	if _, e, _, _ := s.Lookup(3*pageLen + 1); e != InitEntry {
		t.Errorf("entry after Reset = %#x, want InitEntry", uint64(e))
	}
}
