package core

import (
	"fmt"

	"scord/internal/config"
)

// MetaStore holds the per-word metadata entries under one of the four
// storage policies of the paper:
//
//   - ModeFull4B:  one entry per 4-byte word (200% overhead) — base design
//   - ModeCached:  direct-mapped software cache, one entry per Ratio words,
//     4-bit tag (12.5% overhead at ratio 16) — ScoRD
//   - ModeGran8B:  one entry per 2 words (100% overhead) — Table VII
//   - ModeGran16B: one entry per 4 words (50% overhead)  — Table VII
//
// Entries live in Go memory; their *addresses* are modelled in a reserved
// region starting at metaBase so the gpu package can charge L2/DRAM timing
// for every metadata access.
//
// Host storage is paged: the numEntries logical entries are split into
// fixed pages that materialize on first write, and a page never written
// since the last Reset reads as InitEntry. The page directory grows only
// up to the highest page written, so construction allocates nothing
// sized by the arena and Reset costs what a kernel touched, while entry
// indices and modelled addresses are those of one dense array.
type MetaStore struct {
	mode       config.DetectorMode
	numEntries int
	pages      []*metaPage // up to the highest page written; nil or past the end: InitEntry
	touched    []int       // pages materialized since the last Reset
	free       []*metaPage // pages released by Reset, reused first
	grpShift   uint        // granularity modes: log2(words per entry)
	metaBase   uint64
}

// pageShift sets the page size: 512 entries, 4 KB of host memory.
const (
	pageShift = 9
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

type metaPage [pageLen]Entry

// NewMetaStore sizes a store for a device arena of totalWords 4-byte
// words. metaBase is the first byte address of the modelled metadata
// region (placed just above the data arena).
func NewMetaStore(mode config.DetectorMode, totalWords, cacheRatio int, metaBase uint64) *MetaStore {
	s := &MetaStore{mode: mode, metaBase: metaBase}
	switch mode {
	case config.ModeFull4B:
		s.numEntries = totalWords
	case config.ModeCached:
		if cacheRatio <= 0 {
			panic("core: cache ratio must be positive")
		}
		s.numEntries = max(totalWords/cacheRatio, 1)
	case config.ModeGran8B:
		s.grpShift = 1
		s.numEntries = (totalWords + 1) / 2
	case config.ModeGran16B:
		s.grpShift = 2
		s.numEntries = (totalWords + 3) / 4
	default:
		panic(fmt.Sprintf("core: MetaStore for mode %v", mode))
	}
	return s
}

// Reset restores every entry to the (re-)initialization pattern. Called at
// each kernel launch, matching the paper's per-execution detection window.
// Only the pages written since the previous Reset are released.
func (s *MetaStore) Reset() {
	for _, pi := range s.touched {
		s.free = append(s.free, s.pages[pi])
		s.pages[pi] = nil
	}
	s.touched = s.touched[:0]
}

// NumEntries returns the entry count (tests and overhead accounting).
func (s *MetaStore) NumEntries() int { return s.numEntries }

// OverheadPercent returns metadata bytes as a percentage of the data bytes
// covered (the paper's 200% / 100% / 50% / 12.5% figures).
func (s *MetaStore) OverheadPercent(totalWords int) float64 {
	return float64(s.numEntries*8) / float64(totalWords*4) * 100
}

// slot maps a word index to its entry index and expected tag.
func (s *MetaStore) slot(wordIdx int) (idx int, tag uint8) {
	switch s.mode {
	case config.ModeCached:
		return wordIdx % s.numEntries, uint8(wordIdx/s.numEntries) & 0xF
	default:
		return wordIdx >> s.grpShift, 0
	}
}

// Lookup fetches the entry covering wordIdx. tagOK is false in cached mode
// when the resident entry belongs to an aliasing word (a software-cache
// miss): the caller must skip detection and overwrite.
func (s *MetaStore) Lookup(wordIdx int) (idx int, e Entry, tag uint8, tagOK bool) {
	idx, tag = s.slot(wordIdx)
	if uint(idx) >= uint(s.numEntries) {
		// The simulator and the trace decoder reject such addresses
		// first, so reaching here is a bug.
		panic(fmt.Sprintf("core: word %d outside the %d-entry metadata store", wordIdx, s.numEntries))
	}
	e = InitEntry
	if pi := idx >> pageShift; pi < len(s.pages) {
		if p := s.pages[pi]; p != nil {
			e = p[idx&pageMask]
		}
	}
	if s.mode == config.ModeCached {
		// An initialized entry is owned by nobody yet: any tag may claim it.
		tagOK = e.IsInit() || e.Tag() == tag
	} else {
		tagOK = true
	}
	return idx, e, tag, tagOK
}

// Update writes back an entry at an index Lookup returned.
func (s *MetaStore) Update(idx int, e Entry) {
	var p *metaPage
	if pi := idx >> pageShift; pi < len(s.pages) {
		p = s.pages[pi]
	}
	if p == nil {
		p = s.materialize(idx)
	}
	p[idx&pageMask] = e
}

// materialize backs the page holding entry idx with storage holding
// InitEntry throughout, reusing a released page when there is one. The
// directory grows to reach the page.
func (s *MetaStore) materialize(idx int) *metaPage {
	if pi := idx >> pageShift; pi >= len(s.pages) {
		s.pages = append(s.pages, make([]*metaPage, pi+1-len(s.pages))...)
	}
	var p *metaPage
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		p = new(metaPage)
	}
	for i := range p {
		p[i] = InitEntry
	}
	s.pages[idx>>pageShift] = p
	s.touched = append(s.touched, idx>>pageShift)
	return p
}

// AddrOf returns the modelled byte address of entry idx, used to charge
// L2/DRAM timing for metadata traffic.
func (s *MetaStore) AddrOf(idx int) uint64 { return s.metaBase + uint64(idx)*8 }

// GroupBase returns the first word index covered by the entry for
// wordIdx — race records anchor on it so coarse granularities report a
// stable address per group.
func (s *MetaStore) GroupBase(wordIdx int) int {
	if s.grpShift == 0 {
		return wordIdx
	}
	return wordIdx >> s.grpShift << s.grpShift
}
