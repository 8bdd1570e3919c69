package tracefile

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
)

// syntheticTrace writes a trace with roughly the requested number of ops
// blocks (each block is ~flushLen bytes of access records) and returns
// the encoded bytes.
func syntheticTrace(tb testing.TB, blocks int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewHeader("synthetic", nil, config.Default()))
	if err != nil {
		tb.Fatal(err)
	}
	w.KernelStart("k", 4, 128, 0)
	w.Alloc("data", 0, 1<<20)
	// One access record encodes to ~10-16 bytes; overshoot a little so
	// the final short block never drops the count below the target.
	perBlock := flushLen / 10
	for i := 0; i < blocks*perBlock; i++ {
		w.Access(core.Access{
			Kind:  core.KindLoad,
			Scope: core.ScopeBlock,
			Addr:  uint64(i%1024) * 4,
			Block: i % 4,
			Warp:  i % 8,
			Site:  fmt.Sprintf("site-%d", i%8),
			Cycle: uint64(i),
			Lane:  i % 32,
		}, core.AtomicOther, 4)
	}
	w.KernelEnd("k", uint64(blocks*perBlock))
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func readWhole(tb testing.TB, raw []byte) int {
	tb.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
}

// TestReaderBlockAllocs pins the reader's steady-state allocation
// behavior: decoding a block must reuse the Reader's scratch buffer, so
// the marginal cost of additional ops blocks is (near) zero allocations.
// The fixed setup cost — bufio.Reader, header JSON decode, interned site
// strings — is identical for both traces and cancels out. Before the
// scratch buffer, every block cost at least one fresh payload allocation
// — up to maxBlockLen bytes each — letting a hostile upload drive
// allocation churn.
func TestReaderBlockAllocs(t *testing.T) {
	const small, large = 16, 64
	rawSmall := syntheticTrace(t, small)
	rawLarge := syntheticTrace(t, large)
	allocsSmall := testing.AllocsPerRun(5, func() { readWhole(t, rawSmall) })
	allocsLarge := testing.AllocsPerRun(5, func() { readWhole(t, rawLarge) })
	perBlock := (allocsLarge - allocsSmall) / float64(large-small)
	if perBlock >= 0.5 {
		t.Errorf("marginal cost = %.2f allocs/block (%.0f allocs @ %d blocks, %.0f @ %d); want < 0.5 — the scratch buffer must be reused across blocks",
			perBlock, allocsLarge, large, allocsSmall, small)
	}
}

// BenchmarkReaderNext measures streaming decode throughput and allocs
// over a multi-block synthetic trace.
func BenchmarkReaderNext(b *testing.B) {
	raw := syntheticTrace(b, 16)
	ops := readWhole(b, raw)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := readWhole(b, raw); got != ops {
			b.Fatalf("decoded %d ops, want %d", got, ops)
		}
	}
}
