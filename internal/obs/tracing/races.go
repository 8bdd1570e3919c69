package tracing

import (
	"fmt"
	"strconv"

	"scord/internal/core"
)

// RaceMark identifies one race verdict in terms the cycle-domain span
// tree can locate: both access sides as (block, warp, cycle) triples.
// The exporter turns each mark into a race instant with flow arrows
// linking the two check-batch spans that contain the accesses.
//
// Block and warp identities on the previous side come from the
// detector's metadata entry, which truncates them to 7/5 bits; for the
// workloads this simulator runs (≤128 blocks, ≤32 warps) the truncated
// IDs are the real ones.
type RaceMark struct {
	// Kind is the race-kind label shown on the instant.
	Kind string
	// Addr and Site identify the racing word for the instant's args.
	Addr uint64
	Site string

	PrevBlock, PrevWarp int
	PrevCycle           uint64
	CurBlock, CurWarp   int
	CurCycle            uint64
}

// RaceMarks converts race records into marks, reading both access sides
// from the detector's captured provenance (core.Detector.EvidenceFor).
// Records without evidence are skipped.
func RaceMarks(races []core.Record, evidence func(core.Record) (core.Evidence, bool)) []RaceMark {
	marks := make([]RaceMark, 0, len(races))
	for _, rec := range races {
		ev, ok := evidence(rec)
		if !ok {
			continue
		}
		marks = append(marks, RaceMark{
			Kind:      rec.Kind.String(),
			Addr:      rec.Addr,
			Site:      rec.Site,
			PrevBlock: ev.Prev.Block, PrevWarp: ev.Prev.Warp, PrevCycle: ev.Prev.Cycle,
			CurBlock: ev.Cur.Block, CurWarp: ev.Cur.Warp, CurCycle: ev.Cur.Cycle,
		})
	}
	return marks
}

// AttachRaces adds one "race" event per mark to the span tree, anchored
// on the check-batch span containing the current access (falling back to
// the root when no batch matches). Each event carries the span IDs of
// both access sides as attributes, which WritePerfettoSpans resolves
// into flow arrows. Call after the builder has finished (all spans
// closed); marks that match no span still produce a root-anchored event
// so no verdict silently disappears from the export.
func AttachRaces(t *Tracer, marks []RaceMark) {
	batches := t.batchesByWarp()
	for _, m := range marks {
		anchor := findBatch(batches, m.CurBlock, m.CurWarp, m.CurCycle)
		prev := findBatch(batches, m.PrevBlock, m.PrevWarp, m.PrevCycle)
		attrs := []Attr{
			{Key: "kind", Value: m.Kind},
			{Key: "addr", Value: fmt.Sprintf("%#x", m.Addr)},
			{Key: "site", Value: m.Site},
			{Key: "prev_cycle", Value: fmt.Sprintf("%d", m.PrevCycle)},
			{Key: "cur_cycle", Value: fmt.Sprintf("%d", m.CurCycle)},
		}
		if prev != nil {
			attrs = append(attrs, Attr{Key: "prev_span", Value: prev.ID().String()})
		}
		target := t.rootSpan()
		if anchor != nil {
			target = anchor
			attrs = append(attrs, Attr{Key: "cur_span", Value: anchor.ID().String()})
		}
		if target != nil {
			target.AddEvent("race", m.CurCycle, attrs...)
		}
	}
}

// batchesByWarp indexes the check-batch spans by their (block, warp)
// attributes, each list in creation order.
func (t *Tracer) batchesByWarp() map[batchKey][]*Span {
	idx := map[batchKey][]*Span{}
	for _, s := range t.spans {
		if s.name != "check-batch" {
			continue
		}
		k := batchKey{-1, -1}
		for _, a := range s.attrs {
			switch a.Key {
			case "block":
				k.block, _ = strconv.Atoi(a.Value)
			case "warp":
				k.warp, _ = strconv.Atoi(a.Value)
			}
		}
		idx[k] = append(idx[k], s)
	}
	return idx
}

// findBatch returns the check-batch span of (block, warp) whose interval
// contains cycle, or nil. The earliest-created batch wins ties, so the
// choice is deterministic.
func findBatch(batches map[batchKey][]*Span, block, warp int, cycle uint64) *Span {
	for _, s := range batches[batchKey{block, warp}] {
		if s.start <= cycle && (s.open || cycle <= s.end) {
			return s
		}
	}
	return nil
}

// rootSpan returns the first recorded span (the builder's "run" root),
// or nil for an empty tracer.
func (t *Tracer) rootSpan() *Span {
	if len(t.spans) == 0 {
		return nil
	}
	return t.spans[0]
}
