// Package cache implements the set-associative caches of the simulated GPU.
//
// Two usage modes exist:
//
//   - Data caches (the per-SM L1s) store actual line contents with per-word
//     dirty bits. They are deliberately non-coherent: a line may go stale
//     with respect to global memory, which is how scoped races manifest
//     functionally under the HRF memory model.
//   - Tag-only caches (the shared L2) track presence and dirtiness for
//     timing and DRAM-traffic accounting; the authoritative values live in
//     the mem.Memory arena beneath them.
package cache

import (
	"fmt"

	"scord/internal/mem"
)

// Eviction describes a victim line displaced by a fill.
type Eviction struct {
	Valid bool     // a valid line was displaced
	Dirty bool     // the victim had dirty words
	Base  mem.Addr // base address of the victim line
	Data  []uint32 // victim contents (data caches only; aliases internal storage)
	Mask  uint64   // per-word dirty bits of the victim
}

type line struct {
	valid bool
	base  mem.Addr // line base address (full address, so no separate tag needed)
	dirty uint64   // per-word dirty bits; tag-only caches use bit 0
	data  []uint32 // nil in tag-only mode
	lru   uint64
}

// Cache is a set-associative, LRU cache. Not safe for concurrent use; the
// simulation is single-threaded.
type Cache struct {
	sets      int
	assoc     int
	lineBytes int
	wordsPer  int
	storeData bool
	lines     []line
	tick      uint64
}

// New builds a cache of the given total size. storeData selects data mode
// (per-line contents and per-word dirty bits) versus tag-only mode.
func New(sizeBytes, assoc, lineBytes int, storeData bool) *Cache {
	if sizeBytes <= 0 || assoc <= 0 || lineBytes <= 0 || sizeBytes%(assoc*lineBytes) != 0 {
		panic(fmt.Sprintf("cache: invalid geometry size=%d assoc=%d line=%d", sizeBytes, assoc, lineBytes))
	}
	wordsPer := lineBytes / mem.WordBytes
	if wordsPer > 64 {
		panic(fmt.Sprintf("cache: line of %d bytes exceeds 64-word dirty mask", lineBytes))
	}
	c := &Cache{
		sets:      sizeBytes / (assoc * lineBytes),
		assoc:     assoc,
		lineBytes: lineBytes,
		wordsPer:  wordsPer,
		storeData: storeData,
		lines:     make([]line, (sizeBytes/(assoc*lineBytes))*assoc),
	}
	if storeData {
		backing := make([]uint32, len(c.lines)*wordsPer)
		for i := range c.lines {
			c.lines[i].data = backing[i*wordsPer : (i+1)*wordsPer]
		}
	}
	return c
}

// LineBase returns the base address of the line containing a.
func (c *Cache) LineBase(a mem.Addr) mem.Addr {
	return a &^ mem.Addr(c.lineBytes-1)
}

func (c *Cache) setOf(base mem.Addr) int {
	return int(uint64(base) / uint64(c.lineBytes) % uint64(c.sets))
}

func (c *Cache) find(base mem.Addr) *line {
	s := c.setOf(base)
	for i := s * c.assoc; i < (s+1)*c.assoc; i++ {
		if c.lines[i].valid && c.lines[i].base == base {
			return &c.lines[i]
		}
	}
	return nil
}

// Contains reports whether the line holding a is present, without touching
// LRU state.
func (c *Cache) Contains(a mem.Addr) bool {
	return c.find(c.LineBase(a)) != nil
}

// Access probes for the line containing a, filling it on a miss. It
// returns whether the probe hit and, on a miss that displaced a valid
// line, the eviction record (whose Data slice is only valid until the next
// Access).
func (c *Cache) Access(a mem.Addr) (hit bool, ev Eviction) {
	base := c.LineBase(a)
	c.tick++
	if l := c.find(base); l != nil {
		l.lru = c.tick
		return true, Eviction{}
	}
	// Miss: pick LRU victim in the set.
	s := c.setOf(base)
	victim := &c.lines[s*c.assoc]
	for i := s*c.assoc + 1; i < (s+1)*c.assoc; i++ {
		l := &c.lines[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid {
		ev = Eviction{
			Valid: true,
			Dirty: victim.dirty != 0,
			Base:  victim.base,
			Data:  victim.data,
			Mask:  victim.dirty,
		}
	}
	victim.valid = true
	victim.base = base
	victim.dirty = 0
	victim.lru = c.tick
	return false, ev
}

// FillFrom loads the line containing a with current global values from m.
// Call after a missing Access on a data cache.
func (c *Cache) FillFrom(a mem.Addr, m *mem.Memory) {
	if !c.storeData {
		return
	}
	base := c.LineBase(a)
	l := c.find(base)
	if l == nil {
		panic("cache: FillFrom on absent line")
	}
	for i := 0; i < c.wordsPer; i++ {
		l.data[i] = m.Read(base + mem.Addr(i*mem.WordBytes))
	}
	l.dirty = 0
}

// ReadWord returns the cached value of the word at a. The line must be
// present (data caches only).
func (c *Cache) ReadWord(a mem.Addr) uint32 {
	l := c.find(c.LineBase(a))
	if l == nil {
		panic("cache: ReadWord on absent line")
	}
	return l.data[c.wordIdx(a)]
}

// WriteWord updates the cached value of the word at a and marks it dirty.
// The line must be present (data caches only).
func (c *Cache) WriteWord(a mem.Addr, v uint32) {
	l := c.find(c.LineBase(a))
	if l == nil {
		panic("cache: WriteWord on absent line")
	}
	i := c.wordIdx(a)
	l.data[i] = v
	l.dirty |= 1 << uint(i)
}

// DirtyWord reports the cached value of the word at a and whether that
// word is dirty. ok is false when the line is absent.
func (c *Cache) DirtyWord(a mem.Addr) (v uint32, dirty, ok bool) {
	l := c.find(c.LineBase(a))
	if l == nil {
		return 0, false, false
	}
	i := c.wordIdx(a)
	return l.data[i], l.dirty&(1<<uint(i)) != 0, true
}

// UpdateWordIfPresent refreshes the cached copy of the word at a with the
// new global value and clears its dirty bit (the copy now matches global
// memory). Used when a strong operation updates a word the SM also caches.
func (c *Cache) UpdateWordIfPresent(a mem.Addr, v uint32) {
	l := c.find(c.LineBase(a))
	if l == nil {
		return
	}
	i := c.wordIdx(a)
	l.data[i] = v
	l.dirty &^= 1 << uint(i)
}

// FlushAllWith writes back every dirty word via m, invoking onDirty for
// each dirty line flushed (for timing charges), then invalidates the whole
// cache.
func (c *Cache) FlushAllWith(m *mem.Memory, onDirty func(base mem.Addr)) int {
	flushed := 0
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty != 0 {
			flushed++
			if c.storeData && m != nil {
				WritebackWords(Eviction{Valid: true, Base: l.base, Data: l.data, Mask: l.dirty}, m)
			}
			if onDirty != nil {
				onDirty(l.base)
			}
		}
		l.valid = false
		l.dirty = 0
	}
	return flushed
}

// MarkDirty marks the line containing a dirty (tag-only caches). The line
// must be present.
func (c *Cache) MarkDirty(a mem.Addr) {
	l := c.find(c.LineBase(a))
	if l == nil {
		panic("cache: MarkDirty on absent line")
	}
	l.dirty |= 1
}

func (c *Cache) wordIdx(a mem.Addr) int {
	return int(a%mem.Addr(c.lineBytes)) / mem.WordBytes
}

// InvalidateLine drops the line containing a if present, returning its
// eviction record (so dirty words can be written back).
func (c *Cache) InvalidateLine(a mem.Addr) Eviction {
	l := c.find(c.LineBase(a))
	if l == nil {
		return Eviction{}
	}
	ev := Eviction{Valid: true, Dirty: l.dirty != 0, Base: l.base, Data: l.data, Mask: l.dirty}
	l.valid = false
	l.dirty = 0
	return ev
}

// WritebackWords copies the dirty words of ev into m (data caches). It
// returns the number of words written.
func WritebackWords(ev Eviction, m *mem.Memory) int {
	if !ev.Valid || ev.Mask == 0 || ev.Data == nil {
		return 0
	}
	n := 0
	for i := range ev.Data {
		if ev.Mask&(1<<uint(i)) != 0 {
			m.Write(ev.Base+mem.Addr(i*mem.WordBytes), ev.Data[i])
			n++
		}
	}
	return n
}

// FlushAll writes back every dirty word (data caches, via m) and
// invalidates the whole cache. It returns the number of dirty lines
// flushed. This models a device-scope fence's writeback-and-invalidate of
// an SM's L1.
func (c *Cache) FlushAll(m *mem.Memory) int {
	flushed := 0
	for i := range c.lines {
		l := &c.lines[i]
		if !l.valid {
			continue
		}
		if l.dirty != 0 {
			flushed++
			if c.storeData && m != nil {
				WritebackWords(Eviction{Valid: true, Base: l.base, Data: l.data, Mask: l.dirty}, m)
			}
		}
		l.valid = false
		l.dirty = 0
	}
	return flushed
}
