package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"scord/internal/obs/tracing"
)

// PerfettoEvent is one Chrome trace_event record. The subset used here:
// "X" complete events carry ts+dur, "i" instants carry ts and a scope,
// "s"/"f" carry flow arrows, "M" metadata events name processes and
// threads.
type PerfettoEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   uint64            `json:"ts"`
	Dur  uint64            `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s,omitempty"`
	ID   int               `json:"id,omitempty"`
	BP   string            `json:"bp,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// PerfettoTrace is the JSON-object form of the trace_event format, which
// both chrome://tracing and ui.perfetto.dev load directly.
type PerfettoTrace struct {
	TraceEvents     []PerfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// WritePerfettoSpans renders a span-tree export (internal/obs/tracing)
// as Chrome trace_event JSON for ui.perfetto.dev. Nesting (run ⊃ kernel
// ⊃ barrier-phase ⊃ check-batch) is explicit in the track layout:
//
//   - tid 0 carries the run and kernel spans;
//   - each block's barrier-phase and check-batch spans go on a "block N"
//     track (tid = block + 1), nested by their timestamps.
//
// Span point events become thread-scoped "i" instants. A "race" event
// (attached by tracing.AttachRaces) additionally emits a flow arrow: a
// flow that starts inside the previous access's check-batch span at the
// recorded previous cycle and ends at the race instant, which itself
// sits inside the current access's check-batch span — so the viewer
// draws an arrow connecting both access spans through the verdict.
//
// Spans the tracer dropped past its cap are missing from the tracks, so
// a non-zero Export.Dropped is shown as a "dropped_spans" arg on the
// process_name metadata.
//
// Cycle-domain timestamps are presented as microseconds (1 cycle =
// 1 us), so the viewer's time axis reads directly in cycles; wall-domain
// exports are already in us. Output is deterministic: tracks are
// assigned in sorted block order and events are emitted in the export's
// span order.
func WritePerfettoSpans(w io.Writer, ex tracing.Export) error {
	// Track assignment: sorted distinct block attrs → tids 1, 2, ...
	blocks := map[int]bool{}
	for _, s := range ex.Spans {
		if b, ok := spanBlock(s); ok {
			blocks[b] = true
		}
	}
	var blockIDs []int
	for b := range blocks {
		blockIDs = append(blockIDs, b)
	}
	sort.Ints(blockIDs)
	tids := map[int]int{}
	process := map[string]string{"name": "scord " + string(ex.Domain) + " trace " + ex.TraceID}
	if ex.Dropped > 0 {
		process["dropped_spans"] = strconv.Itoa(ex.Dropped)
	}
	out := []PerfettoEvent{{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0, Args: process,
	}, {
		Name: "thread_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]string{"name": "run"},
	}}
	for i, b := range blockIDs {
		tids[b] = i + 1
		out = append(out, PerfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i + 1,
			Args: map[string]string{"name": fmt.Sprintf("block %d", b)},
		})
	}

	// Span IDs → (tid) for flow-arrow resolution.
	spanTid := map[string]int{}
	tidOf := func(s tracing.ExportSpan) int {
		if b, ok := spanBlock(s); ok {
			return tids[b]
		}
		return 0
	}
	for _, s := range ex.Spans {
		spanTid[s.SpanID] = tidOf(s)
	}

	flowID := 0
	for _, s := range ex.Spans {
		tid := tidOf(s)
		args := map[string]string{"span_id": s.SpanID}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		out = append(out, PerfettoEvent{
			Name: s.Name, Ph: "X", Ts: s.Start, Dur: s.End - s.Start,
			Pid: 0, Tid: tid, Args: args,
		})
		for _, e := range s.Events {
			eargs := map[string]string{}
			for _, a := range e.Attrs {
				eargs[a.Key] = a.Value
			}
			out = append(out, PerfettoEvent{
				Name: e.Name, Ph: "i", Ts: e.Time, Pid: 0, Tid: tid, S: "t",
				Args: eargs,
			})
			if e.Name != "race" {
				continue
			}
			// Flow arrow: previous access span → race instant. The
			// instant already sits inside the current access span's
			// track, so the arrow visually joins both sides.
			prevSpan, okPrev := eargs["prev_span"]
			prevTid, known := spanTid[prevSpan]
			if !okPrev || !known {
				continue
			}
			prevTs := e.Time
			if c, err := strconv.ParseUint(eargs["prev_cycle"], 10, 64); err == nil {
				prevTs = c
			}
			flowID++
			out = append(out, PerfettoEvent{
				Name: "race-flow", Ph: "s", Ts: prevTs, Pid: 0, Tid: prevTid,
				ID: flowID,
			}, PerfettoEvent{
				Name: "race-flow", Ph: "f", Ts: e.Time, Pid: 0, Tid: tid,
				ID: flowID, BP: "e",
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(PerfettoTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}

// spanBlock extracts a span's "block" attribute as an int.
func spanBlock(s tracing.ExportSpan) (int, bool) {
	for _, a := range s.Attrs {
		if a.Key == "block" {
			b, err := strconv.Atoi(a.Value)
			return b, err == nil
		}
	}
	return 0, false
}
