package tracefile_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/scor"
	"scord/internal/tracefile"
)

var gcol struct {
	once sync.Once
	raw  []byte
	err  error
}

// gcolTrace records GCOL at its default size (about 575k ops) once per
// test binary, as `scord-replay record -bench GCOL` would.
func gcolTrace(tb testing.TB) []byte {
	tb.Helper()
	gcol.once.Do(func() {
		var buf bytes.Buffer
		gcol.err = harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(), "GCOL",
			scor.NewGCOL(), config.ModeFull4B, nil, &buf)
		gcol.raw = buf.Bytes()
	})
	if gcol.err != nil {
		tb.Fatalf("recording GCOL: %v", gcol.err)
	}
	return gcol.raw
}

func readAll(tb testing.TB, raw []byte) []tracefile.Op {
	tb.Helper()
	r, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	ops, err := r.ReadAll()
	if err != nil {
		tb.Fatal(err)
	}
	return ops
}

// TestReadAllAllocs gates whole-trace decode at one exactly sized op
// slice plus the encoded bytes: growing the slice op by op instead
// allocates about 5.5 times the slice.
func TestReadAllAllocs(t *testing.T) {
	raw := gcolTrace(t)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops := readAll(t, raw)
	runtime.ReadMemStats(&after)
	slice := float64(len(ops)) * float64(unsafe.Sizeof(tracefile.Op{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.3*slice {
		t.Errorf("ReadAll of %d ops allocated %.1f MB, %.2fx the %.1f MB op slice; want at most 1.3x",
			len(ops), got/1e6, got/slice, slice/1e6)
	}
}

// BenchmarkReadAll decodes a recorded GCOL trace into memory, as every
// whole-trace consumer does first.
func BenchmarkReadAll(b *testing.B) {
	raw := gcolTrace(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		readAll(b, raw)
	}
}
