package tracefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"unsafe"

	"scord/internal/config"
	"scord/internal/core"
)

// sampleOps writes a representative op sequence covering every record
// kind, negative cycle deltas, string interning reuse, and enough volume
// to force multiple ops blocks. It returns the encoded trace and the ops
// in the order written (as the Reader should decode them).
func sampleTrace(t testing.TB, n int) ([]byte, []Op) {
	t.Helper()
	cfg := config.Default()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewHeader("sample", []string{"inj-a"}, cfg))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	var want []Op
	w.Alloc("data", 0, 4096)
	want = append(want, Op{Kind: OpAlloc, Control: &Control{Name: "data", Base: 0, Bytes: 4096}})
	w.Alloc("locks", 4096, 128)
	want = append(want, Op{Kind: OpAlloc, Control: &Control{Name: "locks", Base: 4096, Bytes: 128}})
	w.KernelStart("kern", 2, 64, 10)
	want = append(want, Op{Kind: OpKernel, Control: &Control{Name: "kern", Blocks: 2, Threads: 64}, Access: core.Access{Cycle: 10}})
	for i := 0; i < n; i++ {
		a := core.Access{
			Kind:     core.AccessKind(i % 3),
			Scope:    core.Scope(i % 2),
			Strong:   i%3 == 2,
			Addr:     uint64((i * 4) % 4096),
			Block:    i % 2,
			Warp:     i % 4,
			Barrier:  uint8(i % 5),
			Site:     []string{"", "siteA", "siteB"}[i%3],
			Cycle:    uint64(100 + (i%7)*3 - (i % 5)), // non-monotone
			Lane:     i % 32,
			Diverged: i%11 == 0,
		}
		aop := core.AtomicOp(i % int(core.AtomicRelease+1))
		w.Access(a, aop, 4)
		want = append(want, Op{Kind: OpAccess, Access: a, AtomicOp: aop, Size: 4})
		if i%13 == 0 {
			scope := core.Scope(i % 2)
			w.Fence(i%2, i%4, scope, uint64(90+i), false)
			want = append(want, Op{Kind: OpFence, Access: core.Access{Block: i % 2, Warp: i % 4,
				Scope: scope, Cycle: uint64(90 + i)}})
		}
		if i%17 == 0 {
			w.Barrier(i%2, uint8(i%3), 2, uint64(95+i))
			want = append(want, Op{Kind: OpBarrier, Access: core.Access{Block: i % 2, Cycle: uint64(95 + i)},
				BarrierID: uint8(i % 3), Control: &Control{Warps: 2}})
			w.Fence(i%2, 0, core.ScopeBlock, uint64(95+i), true)
			want = append(want, Op{Kind: OpFence, Access: core.Access{Block: i % 2, Warp: 0,
				Scope: core.ScopeBlock, Cycle: uint64(95 + i)}, FromBarrier: true})
		}
	}
	w.KernelEnd("kern", 100000)
	want = append(want, Op{Kind: OpKernelEnd, Control: &Control{Name: "kern"}, Access: core.Access{Cycle: 100000}})
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes(), want
}

// storeAtTrace encodes a one-kernel trace on the default 2 MB arena whose
// only access is a store to addr.
func storeAtTrace(t testing.TB, addr uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewHeader("stray", nil, config.Default()))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	w.Alloc("data", 0, 4096)
	w.KernelStart("kern", 1, 32, 0)
	w.Access(core.Access{Kind: core.KindStore, Addr: addr, Cycle: 5}, core.AtomicOther, 4)
	w.KernelEnd("kern", 10)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// TestOutOfArenaAccessRejected: an access at or beyond the header's
// DeviceMemBytes cannot come from a live device, and replay would index
// detector metadata past its end, so decoding rejects it.
func TestOutOfArenaAccessRejected(t *testing.T) {
	arena := uint64(config.Default().DeviceMemBytes)
	readAllOps(t, storeAtTrace(t, arena-4))
	for _, addr := range []uint64{arena, 2 * arena} {
		r, err := NewReader(bytes.NewReader(storeAtTrace(t, addr)))
		if err != nil {
			t.Fatalf("NewReader: %v", err)
		}
		for err == nil {
			_, err = r.Next()
		}
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside the") {
			t.Errorf("store at %#x in a %d-byte arena: error %v, want ErrCorrupt naming the arena", addr, arena, err)
		}
	}
}

func readAllOps(t *testing.T, raw []byte) (Header, []Op) {
	t.Helper()
	h, ops, err := decodeBoth(t, raw)
	if err != nil {
		t.Fatalf("decoding after %d ops: %v", len(ops), err)
	}
	return h, ops
}

// decodeBoth decodes raw twice, with a Next loop and with ReadAll, each on
// its own Reader, and fails the test unless both give the same ops or the
// same error: the same text and the same ErrCorrupt and
// io.ErrUnexpectedEOF classes. A successful ReadAll must return an exactly
// sized slice of DeclaredOps(raw) ops. decodeBoth returns the Next loop's
// header and result.
func decodeBoth(t testing.TB, raw []byte) (Header, []Op, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		return Header{}, nil, err
	}
	var ops []Op
	for {
		var op Op
		if op, err = r.Next(); err != nil {
			break
		}
		ops = append(ops, op)
	}
	if err == io.EOF {
		err = nil
	}
	r2, err2 := NewReader(bytes.NewReader(raw))
	if err2 != nil {
		t.Fatalf("second NewReader on the same bytes: %v", err2)
	}
	all, allErr := r2.ReadAll()
	switch {
	case err != nil || allErr != nil:
		if !sameError(err, allErr) {
			t.Fatalf("Next loop fails with %v, ReadAll with %v", err, allErr)
		}
	case !reflect.DeepEqual(all, ops):
		t.Fatalf("ReadAll decoded %d ops, the Next loop %d, and they differ", len(all), len(ops))
	case cap(all) != len(all):
		t.Fatalf("ReadAll returned %d ops in a slice of capacity %d, want an exact allocation", len(all), cap(all))
	case DeclaredOps(raw) != len(all):
		t.Fatalf("DeclaredOps = %d for a trace of %d ops", DeclaredOps(raw), len(all))
	}
	return r.Header(), ops, err
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() &&
		errors.Is(a, ErrCorrupt) == errors.Is(b, ErrCorrupt) &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

// TestRoundTrip decodes each sample with a Next loop and with ReadAll
// (readAllOps) and compares both with the ops written.
func TestRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 20000} { // 20000 forces several ops blocks
		raw, want := sampleTrace(t, n)
		h, got := readAllOps(t, raw)
		if h.Benchmark != "sample" || len(h.Injections) != 1 || h.Version != Version {
			t.Fatalf("header mismatch: %+v", h)
		}
		if h.ConfigHash != HashConfig(h.Config) {
			t.Fatalf("config hash not self-consistent")
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d: decoded %d ops, want %d", n, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("n=%d: op %d differs:\n got %+v\nwant %+v", n, i, got[i], want[i])
			}
		}
	}
}

func TestWriterDeterministic(t *testing.T) {
	a, _ := sampleTrace(t, 500)
	b, _ := sampleTrace(t, 500)
	if !bytes.Equal(a, b) {
		t.Fatal("identical op sequences encoded to different bytes")
	}
}

// TestTruncationAlwaysErrors cuts the trace at every length and asserts
// the reader reports an error (never a silent success, never a panic),
// the same one from a Next loop and from ReadAll.
func TestTruncationAlwaysErrors(t *testing.T) {
	raw, _ := sampleTrace(t, 50)
	for cut := 0; cut < len(raw); cut++ {
		_, _, err := decodeBoth(t, raw[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes read back as a complete trace", cut, len(raw))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestCorruptionAlwaysErrors flips one byte at a time through the whole
// file; every flip must surface as an error by EOF (the CRC guarantees
// it), the same one from a Next loop and from ReadAll, and none may
// panic.
func TestCorruptionAlwaysErrors(t *testing.T) {
	raw, _ := sampleTrace(t, 50)
	for pos := 0; pos < len(raw); pos++ {
		mut := make([]byte, len(raw))
		copy(mut, raw)
		mut[pos] ^= 0x41
		if _, _, err := decodeBoth(t, mut); err == nil {
			t.Fatalf("flipping byte %d went undetected", pos)
		}
	}
}

// TestHugeDeclaredOpCount: an end block with a valid CRC that declares
// 1<<40 ops fails the count check as it always has, and ReadAll does not
// size its slice by a count the bytes could not hold.
func TestHugeDeclaredOpCount(t *testing.T) {
	raw, want := sampleTrace(t, 50)
	bad := redeclare(t, raw, len(want), 1<<40)
	if _, _, err := decodeBoth(t, bad); err == nil ||
		!strings.Contains(err.Error(), "end block declares 1099511627776 ops") {
		t.Fatalf("error %v, want the end block's op count rejected", err)
	}
	if n := DeclaredOps(bad); n != 0 {
		t.Errorf("DeclaredOps = %d for a count the bytes could not hold, want 0", n)
	}

	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.ReadAll()
	runtime.ReadMemStats(&after)
	// Three times the ops the bytes could hold at one byte each, far
	// below what the declared count would take.
	limit := uint64(len(bad)) * uint64(unsafe.Sizeof(Op{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("ReadAll allocated %d bytes for a %d-byte trace, want at most %d", got, len(bad), limit)
	}
}

// redeclare returns sampleTrace's raw, whose n ops are one kernel, with
// an end block that declares ops instead.
func redeclare(t *testing.T, raw []byte, n int, ops uint64) []byte {
	t.Helper()
	end := func(ops uint64) []byte {
		var buf bytes.Buffer
		payload := binary.AppendUvarint(nil, ops)
		payload = binary.AppendUvarint(payload, 1) // one kernel
		if err := (&Writer{w: &buf}).writeBlock(blockEnd, payload); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	honest := end(uint64(n))
	if !bytes.HasSuffix(raw, honest) {
		t.Fatal("sample trace does not end with the end block it declares")
	}
	return append(bytes.Clone(raw[:len(raw)-len(honest)]), end(ops)...)
}

// TestUnderDeclaredOpCount: an end block that declares fewer ops than the
// stream holds fails the count check as it always has, DeclaredOps
// reports the declared count, and ReadAll allocates no op beyond it.
func TestUnderDeclaredOpCount(t *testing.T) {
	raw, want := sampleTrace(t, 20000)
	bad := redeclare(t, raw, len(want), 1)
	if _, _, err := decodeBoth(t, bad); err == nil ||
		!strings.Contains(err.Error(), "end block declares 1 ops") {
		t.Fatalf("error %v, want the end block's op count rejected", err)
	}
	if n := DeclaredOps(bad); n != 1 {
		t.Errorf("DeclaredOps = %d, want the declared 1", n)
	}

	r, err := NewReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.ReadAll()
	runtime.ReadMemStats(&after)
	// The encoded bytes, copied once, and their strings: the ops slice of
	// the undeclared records alone would take 3 MB.
	limit := 2 * uint64(len(bad))
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("ReadAll allocated %d bytes for a %d-byte trace declaring 1 op, want at most %d", got, len(bad), limit)
	}
}

// TestReadAllAfterNext: ReadAll picks up where Next left off, in the
// middle of an ops block, and still sizes its slice exactly.
func TestReadAllAfterNext(t *testing.T) {
	raw, want := sampleTrace(t, 20000)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	const skip = 1000
	for i := 0; i < skip; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	rest, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rest, want[skip:]) || cap(rest) != len(rest) {
		t.Fatalf("ReadAll after %d Next calls: %d ops (cap %d), want the remaining %d",
			skip, len(rest), cap(rest), len(want)-skip)
	}
	if more, err := r.ReadAll(); more != nil || err != nil {
		t.Fatalf("ReadAll at the end: %d ops, %v; want nil, nil", len(more), err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next after ReadAll: %v, want io.EOF", err)
	}
}

// TestReadAllSources: ReadAll sizes its op slice exactly from a source
// that cannot tell its length, such as a file, as from memory, and a
// source that fails mid-stream fails it with the error a Next loop meets
// at the same point.
func TestReadAllSources(t *testing.T) {
	raw, want := sampleTrace(t, 20000)
	path := filepath.Join(t.TempDir(), "sample.sctr")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.ReadAll(); err != nil || !reflect.DeepEqual(got, want) || cap(got) != len(got) {
		t.Fatalf("ReadAll from a file: %d ops (cap %d), %v; want %d ops exactly", len(got), cap(got), err, len(want))
	}

	boom := errors.New("device gone")
	failing := func() *Reader {
		r, err := NewReader(io.MultiReader(bytes.NewReader(raw[:len(raw)/2]), iotest.ErrReader(boom)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r = failing()
	for err == nil {
		_, err = r.Next()
	}
	if _, allErr := failing().ReadAll(); err == io.EOF || !sameError(err, allErr) {
		t.Fatalf("Next loop fails with %v, ReadAll with %v; want the same read error", err, allErr)
	}
}

// TestLongStringsRoundTrip: a string longer than maxStringLen is stored
// as its first maxStringLen bytes, inlined once and back-referenced on
// every later use.
func TestLongStringsRoundTrip(t *testing.T) {
	site := strings.Repeat("s", 5000)
	name := strings.Repeat("k", 5000)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, NewHeader("long", nil, config.Default()))
	if err != nil {
		t.Fatal(err)
	}
	var want []Op
	for k := uint64(0); k < 3; k++ {
		w.KernelStart(name, 1, 32, 100*k)
		want = append(want, Op{Kind: OpKernel, Control: &Control{Name: name[:maxStringLen], Blocks: 1, Threads: 32}, Access: core.Access{Cycle: 100 * k}})
		for i := uint64(0); i < 3; i++ {
			a := core.Access{Kind: core.KindLoad, Addr: 4 * i, Site: site, Cycle: 100*k + i}
			w.Access(a, core.AtomicOther, 4)
			a.Site = site[:maxStringLen]
			want = append(want, Op{Kind: OpAccess, Access: a, Size: 4})
		}
		w.KernelEnd(name, 100*k+50)
		want = append(want, Op{Kind: OpKernelEnd, Control: &Control{Name: name[:maxStringLen]}, Access: core.Access{Cycle: 100*k + 50}})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, got := readAllOps(t, raw); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d ops that differ from the %d written", len(got), len(want))
	}
	for _, s := range []string{site, name} {
		if n := bytes.Count(raw, []byte(s[:maxStringLen])); n != 1 {
			t.Errorf("%q... inlined %d times, want once", s[:8], n)
		}
	}
}

// TestOpSize pins the packed layout of the unit of every whole-trace
// slice: a new field among the narrow ones would re-pad it.
func TestOpSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("layout pinned on 64-bit platforms")
	}
	if got := unsafe.Sizeof(Op{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Op{}) = %d, want 80", got)
	}
}

func TestHeaderHashMismatchRejected(t *testing.T) {
	raw, _ := sampleTrace(t, 1)
	// Corrupt the embedded config without touching the declared hash: the
	// header block is JSON, so flip a digit of the seed value — but any
	// such change also breaks the block CRC. Build the mismatch honestly
	// instead: write a header whose hash disagrees.
	cfg := config.Default()
	h := NewHeader("x", nil, cfg)
	h.ConfigHash++ // simulate a mis-stitched header
	hdr, err := marshalHeader(h)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Write([]byte{magic[0], magic[1], magic[2], magic[3], Version})
	w := &Writer{w: &buf}
	if err := w.writeBlock(blockHeader, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "config hash mismatch") {
		t.Fatalf("mismatched config hash accepted: %v", err)
	}
	_ = raw
}

func TestBadPreamble(t *testing.T) {
	cases := map[string][]byte{
		"empty":       nil,
		"short":       []byte("SCT"),
		"bad magic":   []byte("NOPE\x01"),
		"bad version": []byte("SCTR\x7f"),
	}
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: error %v does not wrap ErrCorrupt", name, err)
		}
	}
}

func TestTrailingDataRejected(t *testing.T) {
	raw, _ := sampleTrace(t, 3)
	r, err := NewReader(bytes.NewReader(append(raw, 0x00)))
	if err != nil {
		t.Fatal(err)
	}
	var lastErr error
	for {
		_, lastErr = r.Next()
		if lastErr != nil {
			break
		}
	}
	if lastErr == io.EOF {
		t.Fatal("trailing garbage after end block went undetected")
	}
}

func TestErrorLatches(t *testing.T) {
	raw, _ := sampleTrace(t, 20)
	mut := make([]byte, len(raw))
	copy(mut, raw)
	mut[len(mut)/2] ^= 0xff
	r, err := NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Skip("corruption landed in the header")
	}
	var first error
	for {
		_, first = r.Next()
		if first != nil {
			break
		}
	}
	if _, again := r.Next(); again != first {
		t.Fatalf("error did not latch: first %v, then %v", first, again)
	}
}

func TestWriterLatchesWriteErrors(t *testing.T) {
	w, err := NewWriter(&failAfter{n: 64}, NewHeader("x", nil, config.Default()))
	if err != nil {
		return // failed already at the header: acceptable
	}
	for i := 0; i < flushLen; i++ {
		w.Access(core.Access{Addr: uint64(i)}, core.AtomicOther, 4)
	}
	if w.Err() == nil {
		t.Fatal("writer swallowed underlying write failure")
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close reported success after write failure")
	}
}

type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}
