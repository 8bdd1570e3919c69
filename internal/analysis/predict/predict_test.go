package predict_test

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// record executes one micro live with trace recording attached and
// returns the trace bytes plus the live detector's observed tuples.
func record(t *testing.T, m *micro.Micro, cfg config.Config) ([]byte, map[predict.Tuple]bool) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatalf("gpu.New: %v", err)
	}
	d.SetOpSink(tw)
	if err := m.Run(d, nil); err != nil {
		t.Fatalf("live run: %v", err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("closing trace: %v", err)
	}
	observed := map[predict.Tuple]bool{}
	for _, r := range d.Races() {
		al, ok := d.Mem().Locate(mem.Addr(r.Addr))
		if !ok {
			continue
		}
		observed[predict.Tuple{Alloc: al.Name, Kind: r.Kind}] = true
	}
	return buf.Bytes(), observed
}

func analyze(t *testing.T, raw []byte) (tracefile.Header, []tracefile.Op, *predict.Result) {
	t.Helper()
	tr, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	res, err := predict.Run(tr.Header(), ops, predict.Options{})
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	return tr.Header(), ops, res
}

func microByName(t *testing.T, name string) *micro.Micro {
	t.Helper()
	for _, m := range append(append([]*micro.Micro{}, micro.All()...), micro.Extensions()...) {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("no micro %q", name)
	return nil
}

func microConfig(m *micro.Micro) config.Config {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.Detector.ITS = m.NeedsITS()
	cfg.Detector.AcqRel = m.NeedsAcqRel()
	return cfg
}

// TestMicroRecall: for every micro (base suite and extensions), every
// dynamically observed race tuple must be predicted from the very trace
// that manifested it, and every prediction must carry a witness that
// CheckWitness re-verifies from the raw op stream.
func TestMicroRecall(t *testing.T) {
	micros := append(append([]*micro.Micro{}, micro.All()...), micro.Extensions()...)
	for _, m := range micros {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			raw, observed := record(t, m, microConfig(m))
			h, ops, res := analyze(t, raw)
			for tu := range observed {
				if !res.Covers(tu.Alloc, tu.Kind) {
					t.Errorf("observed race %s not predicted from its own trace", tu)
				}
			}
			for _, p := range res.Predictions {
				if err := predict.CheckWitness(h, ops, p.Witness); err != nil {
					t.Errorf("witness for %s/%s does not verify: %v\n  %s",
						p.Alloc, p.Record.Kind, err, p.Witness)
				}
			}
		})
	}
}

// TestPredictDeterministic: the analysis renders byte-identically across
// repeated runs of the same trace.
func TestPredictDeterministic(t *testing.T) {
	m := microByName(t, "fence.racey.cross-none")
	raw, _ := record(t, m, microConfig(m))
	_, _, res1 := analyze(t, raw)
	_, _, res2 := analyze(t, raw)
	var b1, b2 bytes.Buffer
	res1.WriteText(&b1)
	res2.WriteText(&b2)
	if b1.String() != b2.String() {
		t.Fatalf("renderings differ:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	if len(res1.Predictions) == 0 {
		t.Fatalf("expected predictions for the racey fence micro")
	}
}

// TestConfirm: a predicted race on the racey fence micro confirms
// against the dynamic detector (already observed on the recorded
// schedule); with the observed set withheld, the targeted perturbation
// path must find a witness schedule.
func TestConfirm(t *testing.T) {
	m := microByName(t, "fence.racey.cross-none")
	raw, observed := record(t, m, microConfig(m))
	h, ops, res := analyze(t, raw)
	if len(res.Predictions) == 0 {
		t.Fatalf("no predictions")
	}
	sawObserved := false
	for _, p := range res.Predictions {
		c, err := predict.Confirm(h, ops, p, observed)
		if err != nil {
			t.Fatalf("confirm: %v", err)
		}
		if c == predict.ConfirmedObserved {
			sawObserved = true
			// The same prediction must also be confirmable without the
			// observed set, via the perturbation path.
			c2, err := predict.Confirm(h, ops, p, nil)
			if err != nil {
				t.Fatalf("confirm (perturbed): %v", err)
			}
			if c2 == predict.Unconfirmed {
				t.Errorf("observed race %s/%s unconfirmed via perturbation", p.Alloc, p.Record.Kind)
			}
		}
	}
	if !sawObserved {
		t.Fatalf("no prediction matched the dynamically observed race")
	}
}

// TestRejectsHostileHeaders: oversized or malformed headers error
// cleanly instead of allocating.
func TestRejectsHostileHeaders(t *testing.T) {
	cfg := config.Default()
	cfg.DeviceMemBytes = 1 << 40
	h := tracefile.NewHeader("x", nil, cfg)
	if _, err := predict.Run(h, nil, predict.Options{}); err == nil {
		t.Errorf("1TiB arena accepted")
	}
	cfg = config.Default()
	cfg.DeviceMemBytes = -4
	h = tracefile.NewHeader("x", nil, cfg)
	if _, err := predict.Run(h, nil, predict.Options{}); err == nil {
		t.Errorf("negative arena accepted")
	}
}

// TestRejectsHostileOps: in-memory ops bypass the trace reader's checks.
// An access at or beyond the arena is an error, not an index past the
// analysis's word index, and a barrier on a block no access can carry
// (validIDs rejects such accesses) panics nowhere and changes nothing.
func TestRejectsHostileOps(t *testing.T) {
	h, ops := synthTrace(1, true, true)
	arena := uint64(h.Config.DeviceMemBytes)
	for _, addr := range []uint64{arena, arena + 5, 1 << 40, math.MaxUint64} {
		bad := append(append([]tracefile.Op{}, ops...), tracefile.Op{
			Kind: tracefile.OpAccess, Access: core.Access{Kind: core.KindStore, Addr: addr}})
		if _, err := predict.Run(h, bad, predict.Options{}); err == nil {
			t.Errorf("access at %#x in a %d-byte arena accepted", addr, arena)
		}
	}
	// Every 7th op gains a successor: a kernel end, which the analysis
	// ignores, or a barrier on a hostile block. Op indices stay aligned.
	with := func(extra tracefile.Op) []tracefile.Op {
		var out []tracefile.Op
		for i, op := range ops {
			out = append(out, op)
			if i%7 == 0 {
				out = append(out, extra)
			}
		}
		return out
	}
	want, err := predict.Run(h, with(tracefile.Op{Kind: tracefile.OpKernelEnd, Control: &tracefile.Control{Name: "k"}}), predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Predictions) == 0 {
		t.Fatal("no predictions to compare")
	}
	for _, block := range []int{-1, 1 << 20, math.MaxInt} {
		got, err := predict.Run(h, with(tracefile.Op{Kind: tracefile.OpBarrier, Access: core.Access{Block: block}, Control: &tracefile.Control{Warps: 4}}), predict.Options{})
		if err != nil {
			t.Fatalf("barrier on block %d: %v", block, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("barriers on block %d changed the analysis", block)
		}
	}
}

// TestFenceOnHighBlockAllocs: lock tables are made per block on first
// use, so a two-op trace, a launch and then a fence on block 65,535,
// allocates under 1 MB. One dense table up to the block took 134 MB.
func TestFenceOnHighBlockAllocs(t *testing.T) {
	h := tracefile.NewHeader("high-block", nil, config.Default())
	ops := []tracefile.Op{
		{Kind: tracefile.OpKernel, Control: &tracefile.Control{Name: "k", Blocks: 65536, Threads: 32}},
		{Kind: tracefile.OpFence, Access: core.Access{Block: 65535, Scope: core.ScopeDevice}},
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := predict.Run(h, ops, predict.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2 || res.Kernels != 1 {
		t.Fatalf("analysed %d ops and %d kernels, want 2 and 1", res.Ops, res.Kernels)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated", alloc)
	if alloc >= 1<<20 {
		t.Errorf("predict.Run allocated %d bytes for a fence on block 65,535, want under 1 MB", alloc)
	}
}

// TestBarrierOnHighBlockLaunches: a launch clears only the barrier phases
// of the blocks that released a barrier since the last one. One barrier
// on block 2^20-1 grows the phase table to 8 MB once; clearing all of it
// at each of the 1,000 launches after it took 443 ms.
func TestBarrierOnHighBlockLaunches(t *testing.T) {
	if raceEnabled {
		t.Skip("time bound")
	}
	const block, launches = 1<<20 - 1, 1000
	h := tracefile.NewHeader("high-barrier", nil, config.Default())
	kernel := tracefile.Op{Kind: tracefile.OpKernel, Control: &tracefile.Control{Name: "k", Blocks: block + 1, Threads: 32}}
	ops := []tracefile.Op{
		kernel,
		{Kind: tracefile.OpBarrier, Access: core.Access{Block: block}, Control: &tracefile.Control{Warps: 1}},
	}
	for i := 1; i < launches; i++ {
		ops = append(ops, kernel)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := predict.Run(h, ops, predict.Options{})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernels != launches {
		t.Fatalf("analysed %d kernels, want %d", res.Kernels, launches)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes allocated in %v", alloc, elapsed)
	if alloc >= 16<<20 {
		t.Errorf("predict.Run allocated %d bytes, want under 16 MB", alloc)
	}
	if elapsed >= 50*time.Millisecond {
		t.Errorf("predict.Run took %v for %d launches after one high-block barrier, want under 50 ms", elapsed, launches)
	}
}
