package predict_test

import (
	"bytes"
	"runtime"
	"testing"

	"scord/internal/analysis/predict"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/tracefile"
)

func gcolOps(tb testing.TB) (tracefile.Header, []tracefile.Op) {
	tb.Helper()
	tr, err := tracefile.NewReader(bytes.NewReader(appTrace(tb, "GCOL", scor.NewGCOL())))
	if err != nil {
		tb.Fatal(err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		tb.Fatal(err)
	}
	return tr.Header(), ops
}

// TestPredictRunAllocs gates the analysis of a recorded GCOL trace (27
// launches, about 575k ops) at 0.1 heap allocations and 32 bytes per op:
// per-kernel state that a launch resets by truncation costs what the
// busiest kernel touches, once. Chunked word states take 0.062 and 19;
// one growing slice of them instead 42 bytes, map-based state 1.36
// allocations and 289 bytes.
func TestPredictRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("records a whole app")
	}
	h, ops := gcolOps(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := predict.Run(h, ops, predict.Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := float64(res.Ops)
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%d ops: %.3f allocations and %.1f bytes per op", res.Ops, mallocs, bytesPerOp)
	if mallocs > 0.1 || bytesPerOp > 32 {
		t.Errorf("predict.Run made %.3f allocations and %.1f bytes per op; want at most 0.1 and 32", mallocs, bytesPerOp)
	}
}

// TestConfirmAllocs gates one Confirm on the recorded GCOL trace at 8
// bytes per op. Its witness schedule is a permutation of the trace, 4
// bytes per op, replayed in place; a copy of the trace to swap in cost
// 80 bytes per op.
func TestConfirmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("records a whole app")
	}
	h, ops := gcolOps(t)
	res, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) == 0 {
		t.Fatal("no prediction on GCOL to confirm")
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = predict.Confirm(h, ops, res.Predictions[0], nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(ops))
	t.Logf("%d ops: %.1f bytes per op", len(ops), bytesPerOp)
	if bytesPerOp > 8 {
		t.Errorf("predict.Confirm allocated %.1f bytes per op; want at most 8", bytesPerOp)
	}
}

var benchResult *predict.Result

// BenchmarkPredictRun analyzes a recorded GCOL trace, as `scord-replay
// predict` does after decoding it.
func BenchmarkPredictRun(b *testing.B) {
	h, ops := gcolOps(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := predict.Run(h, ops, predict.Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ops)), "ns/trace-op")
}
