package core

import (
	"fmt"
	"strings"
)

// EvidenceSide is one side of a racing pair exactly as the detector saw
// it at check time: identity, access shape, the barrier phase and fence
// counters recorded for it, and its lock-bloom summary.
type EvidenceSide struct {
	Block   int    `json:"block"`
	Warp    int    `json:"warp"`
	Site    string `json:"site,omitempty"`
	Cycle   uint64 `json:"cycle"`
	Kind    string `json:"kind"`
	Strong  bool   `json:"strong"`
	Barrier uint8  `json:"barrierPhase"`
	// BlkFenceID/DevFenceID are the fence-file counters recorded for
	// this access (the happens-before comparands of Table IV (a)/(b)).
	BlkFenceID uint8 `json:"blkFenceID"`
	DevFenceID uint8 `json:"devFenceID"`
	// Bloom is the lock-bloom summary active at the access (the lockset
	// comparand of Table IV (e)/(f)).
	Bloom uint16 `json:"lockBloom"`
	// AtomScope is set when the access is an atomic.
	AtomScope string `json:"atomScope,omitempty"`
}

// Evidence is the full provenance record of one race verdict: both access
// sides, the metadata sharing state between them, the live fence-file
// counters the happens-before check compared against, and the Table
// III/IV row that fired. Captured at the first occurrence of each unique
// race tuple.
//
// The previous side is reconstructed from the metadata entry (identities
// are the entry's truncated 7-bit block / 5-bit warp IDs) plus a shadow
// site table, so it reflects the last recorded access to the metadata
// group — exactly the information the verdict was decided on.
type Evidence struct {
	// TableRow names the detection rule that fired, e.g. "Table IV (b)".
	TableRow  string       `json:"tableRow"`
	SameBlock bool         `json:"sameBlock"`
	Prev      EvidenceSide `json:"prev"`
	Cur       EvidenceSide `json:"cur"`
	// Sharing state the entry carried for the previous access.
	PrevModified  bool `json:"prevModified"`
	PrevBlkShared bool `json:"prevBlkShared"`
	PrevDevShared bool `json:"prevDevShared"`
	// FenceFileBlk/Dev are the previous warp's live fence-file counters
	// at check time; the race fired because the entry's recorded IDs
	// still matched (no ordering fence had retired in between).
	FenceFileBlk uint8 `json:"fenceFileBlk"`
	FenceFileDev uint8 `json:"fenceFileDev"`
}

// TableRow maps a race kind to the paper's detection-rule row.
func TableRow(k RaceKind) string {
	switch k {
	case RaceMissingBlockFence:
		return "Table IV (a)"
	case RaceMissingDeviceFence:
		return "Table IV (b)"
	case RaceNotStrong:
		return "Table IV (c)"
	case RaceScopedAtomic:
		return "Table IV (d)"
	case RaceMissingLockLoad:
		return "Table IV (e)"
	case RaceMissingLockStore:
		return "Table IV (f)"
	case RaceDivergedWarp:
		return "ITS extension (Section VI)"
	default:
		return fmt.Sprintf("RaceKind(%d)", int(k))
	}
}

// Render formats the evidence as a deterministic indented block (the
// scord-replay explain output).
func (ev Evidence) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  rule: %s\n", ev.TableRow)
	side := func(label string, s EvidenceSide) {
		fmt.Fprintf(&b, "  %s: %s by b%d/w%d", label, s.Kind, s.Block, s.Warp)
		if s.Strong {
			b.WriteString(" (strong)")
		}
		if s.AtomScope != "" {
			fmt.Fprintf(&b, " scope=%s", s.AtomScope)
		}
		if s.Site != "" {
			fmt.Fprintf(&b, " at %s", s.Site)
		}
		fmt.Fprintf(&b, " cycle=%d\n", s.Cycle)
		fmt.Fprintf(&b, "        barrier-phase=%d fence-ids=(blk %d, dev %d) lock-bloom=%#04x\n",
			s.Barrier, s.BlkFenceID, s.DevFenceID, s.Bloom)
	}
	side("prev", ev.Prev)
	side("cur ", ev.Cur)
	fmt.Fprintf(&b, "  state: sameBlock=%v prevModified=%v prevBlkShared=%v prevDevShared=%v\n",
		ev.SameBlock, ev.PrevModified, ev.PrevBlkShared, ev.PrevDevShared)
	fmt.Fprintf(&b, "  fence-file(prev warp at check): blk=%d dev=%d\n",
		ev.FenceFileBlk, ev.FenceFileDev)
	return b.String()
}

// shadowPrev is the site/cycle memory the entry format cannot hold: which
// concrete instruction last touched each metadata group.
type shadowPrev struct {
	site  string
	cycle uint64
}

// EnableProvenance switches on evidence capture. Off by default: the
// shadow table and evidence map cost memory per metadata group touched,
// and replay/serve enable it only when a consumer asked for provenance.
// Enabling never changes detection results or record formats.
func (d *Detector) EnableProvenance() {
	if d.prov {
		return
	}
	d.prov = true
	d.evidence = make(map[recordKey]Evidence)
	d.shadow = make(map[int]shadowPrev)
}

// EvidenceFor returns the captured evidence for a race record (matched by
// the record's dedup identity: kind, metadata-group address, site).
func (d *Detector) EvidenceFor(r Record) (Evidence, bool) {
	if !d.prov {
		return Evidence{}, false
	}
	ev, ok := d.evidence[recordKey{kind: r.Kind, addr: r.Addr, site: r.Site}]
	return ev, ok
}

// buildEvidence assembles the provenance record at the moment a race is
// reported, before the current access overwrites the metadata entry.
func (d *Detector) buildEvidence(kind RaceKind, a *Access, e Entry, sameBlock bool, cur Bloom) Evidence {
	prevKind := "load"
	switch {
	case e.IsAtom():
		prevKind = "atomic"
	case e.Modified():
		prevKind = "store"
	}
	prev := EvidenceSide{
		Block:      e.BlockID(),
		Warp:       e.WarpID(),
		Kind:       prevKind,
		Strong:     e.Strong(),
		Barrier:    e.BarrierID(),
		BlkFenceID: e.BlkFenceID(),
		DevFenceID: e.DevFenceID(),
		Bloom:      uint16(e.Bloom()),
	}
	if e.IsAtom() {
		prev.AtomScope = e.AtomScope().String()
	}
	if sp, ok := d.shadow[d.store.GroupBase(int(a.Addr/4))]; ok {
		prev.Site, prev.Cycle = sp.site, sp.cycle
	}
	curKind := a.Kind.String()
	curSide := EvidenceSide{
		Block:   a.Block,
		Warp:    a.Warp,
		Site:    a.Site,
		Cycle:   a.Cycle,
		Kind:    curKind,
		Strong:  a.Strong,
		Barrier: a.Barrier,
		Bloom:   uint16(cur),
	}
	curSide.BlkFenceID, curSide.DevFenceID = d.ff.Get(a.Block, a.Warp)
	if a.Kind == KindAtomic {
		curSide.AtomScope = a.Scope.String()
	}
	ffBlk, ffDev := d.ff.Get(e.BlockID(), e.WarpID())
	return Evidence{
		TableRow:      TableRow(kind),
		SameBlock:     sameBlock,
		Prev:          prev,
		Cur:           curSide,
		PrevModified:  e.Modified(),
		PrevBlkShared: e.BlkShared(),
		PrevDevShared: e.DevShared(),
		FenceFileBlk:  ffBlk,
		FenceFileDev:  ffDev,
	}
}
