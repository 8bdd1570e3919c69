package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"scord/internal/obs/tracing"
)

// TestPerfettoSpansExport: the span-tree exporter nests block tracks,
// keeps span attrs as args, and turns race events into instants with
// flow arrows between the access spans.
func TestPerfettoSpansExport(t *testing.T) {
	tr := tracing.New(tracing.ClockCycles, tracing.DeriveTraceID("t"), nil)
	root := tr.StartRootAt("run", 0)
	k := root.StartChildAt("kernel:k", 0)
	phase := k.StartChildAt("barrier-phase", 0)
	phase.SetAttr("block", "0")
	prev := phase.StartChildAt("check-batch", 2)
	prev.SetAttr("block", "0")
	prev.SetAttr("warp", "0")
	prev.FinishAt(10)
	phase2 := k.StartChildAt("barrier-phase", 0)
	phase2.SetAttr("block", "1")
	cur := phase2.StartChildAt("check-batch", 20)
	cur.SetAttr("block", "1")
	cur.SetAttr("warp", "0")
	cur.FinishAt(30)
	phase.FinishAt(40)
	phase2.FinishAt(40)
	k.FinishAt(40)
	root.FinishAt(40)
	tracing.AttachRaces(tr, []tracing.RaceMark{{
		Kind: "missing-device-fence", Addr: 0x80, Site: "s",
		PrevBlock: 0, PrevWarp: 0, PrevCycle: 5,
		CurBlock: 1, CurWarp: 0, CurCycle: 25,
	}})
	doc := exportPerfetto(t, tr)
	var flowStart, flowEnd, race *PerfettoEvent
	batchTids := map[string]int{}
	for i, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.Name == "check-batch":
			batchTids[e.Args["block"]] = e.Tid
		case e.Ph == "s":
			flowStart = &doc.TraceEvents[i]
		case e.Ph == "f":
			flowEnd = &doc.TraceEvents[i]
		case e.Ph == "i" && e.Name == "race":
			race = &doc.TraceEvents[i]
		}
	}
	if race == nil || flowStart == nil || flowEnd == nil {
		t.Fatalf("race=%v flowStart=%v flowEnd=%v", race, flowStart, flowEnd)
	}
	if race.Args["kind"] != "missing-device-fence" || race.Args["addr"] != "0x80" {
		t.Fatalf("race args: %v", race.Args)
	}
	// The flow starts on the previous access's track at its cycle and
	// ends at the race instant on the current access's track.
	if flowStart.Tid != batchTids["0"] || flowStart.Ts != 5 {
		t.Fatalf("flow start tid=%d ts=%d, want tid=%d ts=5", flowStart.Tid, flowStart.Ts, batchTids["0"])
	}
	if flowEnd.Tid != batchTids["1"] || flowEnd.Ts != 25 || flowEnd.Tid != race.Tid {
		t.Fatalf("flow end tid=%d ts=%d race tid=%d", flowEnd.Tid, flowEnd.Ts, race.Tid)
	}
	if flowStart.ID == 0 || flowStart.ID != flowEnd.ID {
		t.Fatalf("flow ids %d vs %d", flowStart.ID, flowEnd.ID)
	}
}

// TestPerfettoSpansEmptyExport: an empty span export stays valid, and
// without drops the process metadata carries only its name.
func TestPerfettoSpansEmptyExport(t *testing.T) {
	tr := tracing.New(tracing.ClockCycles, tracing.DeriveTraceID("empty"), nil)
	doc := exportPerfetto(t, tr)
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("empty export has %d events, want the 2 metadata records", len(doc.TraceEvents))
	}
	want := "scord cycles trace " + tr.TraceID().String()
	if args := doc.TraceEvents[0].Args; len(args) != 1 || args["name"] != want {
		t.Fatalf("process_name args = %v, want only name %q", args, want)
	}
}

// TestPerfettoSpansReportsDropped: spans past the tracer's cap are
// missing from the tracks, so the export says how many on the
// process_name metadata.
func TestPerfettoSpansReportsDropped(t *testing.T) {
	tr := tracing.New(tracing.ClockCycles, tracing.DeriveTraceID("capped"), nil)
	tr.SetSpanCap(2)
	root := tr.StartRootAt("run", 0)
	for i := uint64(0); i < 2; i++ {
		root.StartChildAt("kernel:k", i*10).FinishAt(i*10 + 5)
	}
	root.FinishAt(20)
	doc := exportPerfetto(t, tr)
	if pn := doc.TraceEvents[0]; pn.Name != "process_name" || pn.Args["dropped_spans"] != "1" {
		t.Fatalf("process metadata %+v, want dropped_spans=1", pn)
	}
	var spans int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans++
		}
	}
	if spans != 2 {
		t.Fatalf("exported %d spans, want the 2 under the cap", spans)
	}
}

// exportPerfetto renders tr's snapshot and parses it back.
func exportPerfetto(t *testing.T, tr *tracing.Tracer) PerfettoTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WritePerfettoSpans(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc PerfettoTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	return doc
}
