package tracing

import (
	"bytes"
	"strings"
	"testing"

	"scord/internal/core"
	"scord/internal/tracefile"
)

func TestDeriveTraceIDDeterministic(t *testing.T) {
	a := DeriveTraceID("bench", "cfg", "42")
	b := DeriveTraceID("bench", "cfg", "42")
	if a != b {
		t.Fatalf("same parts, different IDs: %s vs %s", a, b)
	}
	c := DeriveTraceID("bench", "cfg", "43")
	if a == c {
		t.Fatalf("different parts, same ID: %s", a)
	}
	// The separator matters: ("ab","c") must differ from ("a","bc").
	if DeriveTraceID("ab", "c") == DeriveTraceID("a", "bc") {
		t.Fatal("part boundaries not separated in hash")
	}
	if a.IsZero() {
		t.Fatal("derived ID is zero")
	}
}

func TestSpanIDsUniqueWithinTrace(t *testing.T) {
	tr := New(ClockCycles, DeriveTraceID("x"), nil)
	seen := map[SpanID]bool{}
	root := tr.StartRootAt("root", 0)
	seen[root.ID()] = true
	for i := 0; i < 100; i++ {
		s := root.StartChildAt("child", uint64(i))
		if seen[s.ID()] {
			t.Fatalf("duplicate span ID %s at span %d", s.ID(), i)
		}
		seen[s.ID()] = true
	}
}

func TestFinishSemantics(t *testing.T) {
	tr := New(ClockCycles, DeriveTraceID("x"), nil)
	s := tr.StartRootAt("s", 10)
	if !s.Open() {
		t.Fatal("new span not open")
	}
	s.FinishAt(5) // before start: clamps
	if s.Open() || s.EndTime() != 10 {
		t.Fatalf("clamp failed: open=%v end=%d", s.Open(), s.EndTime())
	}
	s.FinishAt(99) // double finish: no-op
	if s.EndTime() != 10 {
		t.Fatalf("double finish moved end to %d", s.EndTime())
	}
}

func TestSpansSortedAndClosedAtExport(t *testing.T) {
	tr := New(ClockCycles, DeriveTraceID("x"), nil)
	a := tr.StartRootAt("late", 20)
	b := tr.StartRootAt("early", 5)
	b.FinishAt(30)
	a.AddEvent("mark", 40)
	// a left open; export must close it at the max observed timestamp (40).
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name() != "early" || spans[1].Name() != "late" {
		t.Fatalf("order: %s, %s", spans[0].Name(), spans[1].Name())
	}
	if spans[1].Open() || spans[1].EndTime() != 40 {
		t.Fatalf("open span not closed at max: open=%v end=%d", spans[1].Open(), spans[1].EndTime())
	}
}

func TestSpanCap(t *testing.T) {
	tr := New(ClockCycles, DeriveTraceID("x"), nil)
	tr.SetSpanCap(3)
	for i := 0; i < 10; i++ {
		s := tr.StartRootAt("s", uint64(i))
		s.SetAttr("k", "v") // dropped spans must still be usable
		s.FinishAt(uint64(i))
	}
	if tr.Len() != 3 || tr.Dropped() != 7 {
		t.Fatalf("len=%d dropped=%d", tr.Len(), tr.Dropped())
	}
}

func TestWallClockDomain(t *testing.T) {
	var now uint64 = 100
	tr := New(ClockWall, DeriveTraceID("w"), func() uint64 { return now })
	s := tr.StartRoot("req")
	now = 250
	c := s.StartChild("work")
	now = 400
	c.Finish()
	now = 500
	s.Finish()
	if s.Start() != 100 || s.EndTime() != 500 || c.Start() != 250 || c.EndTime() != 400 {
		t.Fatalf("timestamps: s=[%d,%d] c=[%d,%d]", s.Start(), s.EndTime(), c.Start(), c.EndTime())
	}
	if c.Parent() != s.ID() {
		t.Fatal("child not parented")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tp := Traceparent{TraceID: DeriveTraceID("t"), SpanID: deriveSpanID(DeriveTraceID("t"), 7), Flags: FlagSampled}
	s := tp.String()
	if len(s) != 55 || !strings.HasPrefix(s, "00-") {
		t.Fatalf("format: %q", s)
	}
	got, ok := ParseTraceparent(s)
	if !ok || got != tp {
		t.Fatalf("round trip: %v %v vs %v", ok, got, tp)
	}
}

func TestTraceparentRejects(t *testing.T) {
	valid := Traceparent{TraceID: DeriveTraceID("t"), SpanID: deriveSpanID(DeriveTraceID("t"), 1), Flags: 1}.String()
	bad := []string{
		"",
		"nonsense",
		valid[:54],             // truncated
		"ff" + valid[2:],       // forbidden version
		strings.ToUpper(valid), // uppercase hex
		"00-" + strings.Repeat("0", 32) + valid[35:], // zero trace ID
		valid + "-extra",                    // version 00 with extra field
		strings.Replace(valid, "0", "g", 1), // non-hex
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("accepted %q", s)
		}
	}
	// Future versions may carry extra fields.
	if _, ok := ParseTraceparent("01" + valid[2:] + "-future"); !ok {
		t.Error("rejected future version with extra field")
	}
}

// fold drives the builder with a tiny synthetic kernel: two blocks, a
// barrier in block 0, a device fence, and interleaved accesses.
func fold(b *Builder) {
	acc := func(blk, warp int, addr, cycle uint64) core.Access {
		return core.Access{Kind: core.KindLoad, Addr: addr, Block: blk, Warp: warp, Cycle: cycle, Site: "k.go:1"}
	}
	b.KernelStart("k", 2, 64, 10)
	b.Alloc("buf", 0x1000, 256)
	b.Access(acc(0, 0, 0x1000, 12), core.AtomicOther, 4)
	b.Access(acc(0, 1, 0x1004, 13), core.AtomicOther, 4)
	b.Access(acc(1, 0, 0x1008, 14), core.AtomicOther, 4)
	b.Fence(0, 0, core.ScopeDevice, 20, false)
	b.Access(acc(0, 0, 0x100c, 25), core.AtomicOther, 4)
	b.Barrier(0, 1, 2, 30)
	b.Fence(0, 0, core.ScopeBlock, 30, true)
	b.Fence(0, 1, core.ScopeBlock, 30, true)
	b.Access(acc(0, 1, 0x1010, 35), core.AtomicOther, 4)
	b.KernelEnd("k", 40)
	b.Finish(40)
}

func TestBuilderDeterministic(t *testing.T) {
	var buf1, buf2 bytes.Buffer
	for i, buf := range []*bytes.Buffer{&buf1, &buf2} {
		b := NewBuilder(tracefile.Header{Benchmark: "bench", Seed: 1})
		fold(b)
		if err := b.Tracer().WriteJSON(buf); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two identical builder runs produced different JSON")
	}
	out := buf1.String()
	for _, want := range []string{`"kernel:k"`, `"barrier-phase"`, `"check-batch"`, `"fence"`, `"alloc"`, `"clock_domain": "cycles"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestFromOpsMatchesBuilder(t *testing.T) {
	// Fold the same synthetic stream once through the OpSink methods
	// (the live path) and once through FromOps over equivalent decoded
	// records (the replay path); the JSON must be byte-identical.
	h := tracefile.Header{Benchmark: "bench", ConfigHash: 0xabcdef, Seed: 1}
	live := NewBuilder(h)
	fold(live)
	var liveJSON bytes.Buffer
	live.Tracer().WriteJSON(&liveJSON)

	acc := func(blk, warp int, addr, cycle uint64) tracefile.Op {
		return tracefile.Op{Kind: tracefile.OpAccess, Size: 4,
			Access: core.Access{Kind: core.KindLoad, Addr: addr, Block: blk, Warp: warp, Cycle: cycle, Site: "k.go:1"}}
	}
	ops := []tracefile.Op{
		{Kind: tracefile.OpKernel, Name: "k", Blocks: 2, Threads: 64, Cycle: 10},
		{Kind: tracefile.OpAlloc, Name: "buf", Base: 0x1000, Bytes: 256},
		acc(0, 0, 0x1000, 12),
		acc(0, 1, 0x1004, 13),
		acc(1, 0, 0x1008, 14),
		{Kind: tracefile.OpFence, Block: 0, Warp: 0, Scope: core.ScopeDevice, Cycle: 20},
		acc(0, 0, 0x100c, 25),
		{Kind: tracefile.OpBarrier, Block: 0, BarrierID: 1, Warps: 2, Cycle: 30},
		{Kind: tracefile.OpFence, Block: 0, Warp: 0, Scope: core.ScopeBlock, Cycle: 30, FromBarrier: true},
		{Kind: tracefile.OpFence, Block: 0, Warp: 1, Scope: core.ScopeBlock, Cycle: 30, FromBarrier: true},
		acc(0, 1, 0x1010, 35),
		{Kind: tracefile.OpKernelEnd, Name: "k", Cycle: 40},
	}
	var replayJSON bytes.Buffer
	FromOps(h, ops).WriteJSON(&replayJSON)

	if liveJSON.String() != replayJSON.String() {
		t.Fatalf("live vs replay span JSON differ:\nlive:\n%s\nreplay:\n%s", liveJSON.String(), replayJSON.String())
	}
}

// TestBuilderTraceID: the span trace identity comes from the trace
// header. Injections change it; without them it is the hash of the
// benchmark name, config hash and seed that clean runs have always had.
func TestBuilderTraceID(t *testing.T) {
	id := func(h tracefile.Header) TraceID { return NewBuilder(h).Tracer().TraceID() }
	clean := tracefile.Header{Benchmark: "GCOL", ConfigHash: 0xabcdef, Seed: 1}
	if got, want := id(clean), DeriveTraceID("GCOL", "0000000000abcdef", "1"); got != want {
		t.Fatalf("clean trace ID %s, want %s", got, want)
	}
	empty := clean
	empty.Injections = []string{}
	if id(empty) != id(clean) {
		t.Fatal("an empty injection list changed the trace ID")
	}
	one, two := clean, clean
	one.Injections = []string{"own-atomic"}
	two.Injections = []string{"own-atomic", "steal-atomic"}
	if id(one) == id(clean) || id(two) == id(clean) || id(one) == id(two) {
		t.Fatalf("injections not in the trace ID: clean %s, one %s, two %s", id(clean), id(one), id(two))
	}
}
