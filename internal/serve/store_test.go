package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/tracefile"
)

// fenceFlood encodes a trace of n fences after one launch: a few bytes
// per record, 80 bytes per decoded op.
func fenceFlood(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("flood", nil, config.Default()))
	if err != nil {
		t.Fatal(err)
	}
	tw.KernelStart("kern", 1, 32, 0)
	for i := 0; i < n; i++ {
		tw.Fence(0, 0, core.ScopeBlock, 1, false)
	}
	tw.KernelEnd("kern", 2)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// barrierFlood encodes a trace of n barrier releases and nothing else:
// every op keeps a Control.
func barrierFlood(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("barriers", nil, config.Default()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		tw.Barrier(0, uint8(i), 4, uint64(i))
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodedCost is what the store charges for raw once decoded: its ops,
// the Controls a Reader allocates for them, chunk capacity included, and
// its raw length.
func decodedCost(t *testing.T, raw []byte) int64 {
	t.Helper()
	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return int64(len(ops))*opBytes + int64(rd.Controls())*controlBytes + int64(len(raw))
}

// siteFlood encodes a trace of n accesses after one launch, each naming
// a new 4,096-byte site that starts with tag: the decoded ops are a few
// percent of what their interned strings hold.
func siteFlood(t *testing.T, tag string, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("sites", nil, config.Default()))
	if err != nil {
		t.Fatal(err)
	}
	tw.KernelStart("kern", 1, 32, 0)
	for i := 0; i < n; i++ {
		site := fmt.Sprintf("%s%0*d", tag, 4096-len(tag), i)
		tw.Access(core.Access{Kind: core.KindLoad, Addr: 64, Site: site, Cycle: uint64(i + 1)}, core.AtomicOther, 4)
	}
	tw.KernelEnd("kern", uint64(n+1))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreChargesDecodedOps: the budget charges each stored trace its
// decoded ops, their Control chunks and its raw length, and a duplicate
// upload charges nothing.
func TestStoreChargesDecodedOps(t *testing.T) {
	st := NewStore(1 << 30)
	raw := traceBytes(t)
	tr, dup, err := st.Put(raw)
	if err != nil || dup {
		t.Fatalf("Put = dup %v, err %v", dup, err)
	}
	want := decodedCost(t, raw)
	if tr.Ops != len(tr.ops) || st.used != want {
		t.Errorf("stored %d ops (counted %d), charged %d bytes, want %d", len(tr.ops), tr.Ops, st.used, want)
	}
	if tr.RawBytes != len(raw) {
		t.Errorf("RawBytes = %d, want %d", tr.RawBytes, len(raw))
	}
	again, dup, err := st.Put(bytes.Clone(raw))
	if err != nil || !dup || again != tr {
		t.Fatalf("re-upload = %p dup %v err %v, want the stored trace as a duplicate", again, dup, err)
	}
	if st.used != want || st.uploads.Load() != 1 || st.dups.Load() != 1 {
		t.Errorf("after a duplicate: used %d uploads %d dups %d, want %d, 1, 1",
			st.used, st.uploads.Load(), st.dups.Load(), want)
	}
}

// TestStoreRefusesOverBudgetDecode: an upload whose raw bytes fit the
// remaining budget but whose decoded ops do not is refused, leaves the
// store unchanged, and is refused before its ops are allocated. Its
// reservation exceeds the whole budget, so the answer is 413.
func TestStoreRefusesOverBudgetDecode(t *testing.T) {
	raw := traceBytes(t)
	flood := fenceFlood(t, 50_000)
	floodCost := int64(50_000+2)*opBytes + int64(len(flood))
	fenceCost := decodedCost(t, raw)
	budget := fenceCost + 4*int64(len(flood))
	if budget-fenceCost >= floodCost {
		t.Fatalf("flood of %d raw bytes decodes to %d, which fits the remaining %d", len(flood), floodCost, budget-fenceCost)
	}

	s, ts := newTestServer(t, Config{MaxStoreBytes: budget})
	id := upload(t, ts, raw)
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(flood))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over-budget upload status = %d, want 413", resp.StatusCode)
	}
	if ids := s.Store().IDs(); len(ids) != 1 || ids[0] != id {
		t.Errorf("store holds %v, want only %s", ids, id)
	}
	if used := s.Store().used; used != fenceCost {
		t.Errorf("store charges %d bytes after the refusal, want %d", used, fenceCost)
	}

	// Store.Put alone: the refusal allocates a small multiple of the raw
	// size, where decoding first would allocate the 80-byte ops.
	st := NewStore(budget - fenceCost)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err = st.Put(flood)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrStoreFull) {
		t.Fatalf("Put = %v, want ErrStoreFull", err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("refusing %d raw bytes that decode to %d allocated %d bytes", len(flood), floodCost, alloc)
	if alloc > 2*uint64(len(flood)) {
		t.Errorf("refusing a %d-byte upload allocated %d bytes, want at most twice its size", len(flood), alloc)
	}
}

// TestUploadOverBudgetStatus: an upload whose reservation exceeds the
// whole budget gets 413 naming the reservation and -max-store-bytes, since
// no wait lets it in; one that fits an empty store but not beside the
// traces held gets 507. Both leave the store unchanged, and Put's errors
// match ErrStoreFull.
func TestUploadOverBudgetStatus(t *testing.T) {
	raw := traceBytes(t)
	flood := fenceFlood(t, 1000)
	reserve := int64(1000+2)*(opBytes+controlBytes) + int64(len(flood))

	post := func(ts *httptest.Server) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(flood))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	s, ts := newTestServer(t, Config{MaxStoreBytes: reserve - 1})
	code, body := post(ts)
	want := fmt.Sprintf("reserves %d bytes", reserve)
	if code != http.StatusRequestEntityTooLarge || !strings.Contains(body, want) ||
		!strings.Contains(body, fmt.Sprintf("-max-store-bytes %d", reserve-1)) {
		t.Errorf("upload reserving %d bytes into a %d-byte store: %d %q, want 413 naming both", reserve, reserve-1, code, body)
	}
	if n := len(s.Store().IDs()); n != 0 || s.Store().used != 0 {
		t.Errorf("after the 413: %d traces, %d bytes used, want none", n, s.Store().used)
	}
	var tooLarge *TooLargeError
	if _, _, err := NewStore(reserve - 1).Put(flood); !errors.As(err, &tooLarge) || !errors.Is(err, ErrStoreFull) {
		t.Errorf("Put into a %d-byte store = %v, want a *TooLargeError matching ErrStoreFull", reserve-1, err)
	}

	s, ts = newTestServer(t, Config{MaxStoreBytes: reserve})
	upload(t, ts, raw)
	used := s.Store().used
	if code, body := post(ts); code != http.StatusInsufficientStorage {
		t.Errorf("upload reserving %d bytes into a %d-byte store holding %d: %d %q, want 507", reserve, reserve, used, code, body)
	}
	if n := len(s.Store().IDs()); n != 1 || s.Store().used != used {
		t.Errorf("after the 507: %d traces, %d bytes used, want 1 and %d", n, s.Store().used, used)
	}
	st := NewStore(reserve)
	if _, _, err := st.Put(raw); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put(flood); !errors.Is(err, ErrStoreFull) || errors.As(err, &tooLarge) {
		t.Errorf("Put into a %d-byte store holding a trace = %v, want ErrStoreFull but no *TooLargeError", reserve, err)
	}
}

// TestStoreChargesInternedStrings: an upload whose sites hold far more
// than its ops is charged at least its raw length, so uploads that each
// fit when only their ops are counted still exhaust the budget.
func TestStoreChargesInternedStrings(t *testing.T) {
	const n = 64
	first := siteFlood(t, "a", n)
	opsCost := int64(n+2) * opBytes
	if opsCost*4 > int64(len(first)) {
		t.Fatalf("%d ops cost %d bytes, not small beside the %d raw bytes", n+2, opsCost, len(first))
	}
	st := NewStore(5 * int64(len(first)) / 2)
	tr, _, err := st.Put(first)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Accesses != n || tr.ops[1].Access.Site != fmt.Sprintf("a%04095d", 0) {
		t.Fatalf("stored %d accesses, first site %.8q..., want %d distinct 4,096-byte sites", tr.Accesses, tr.ops[1].Access.Site, n)
	}
	if st.used < int64(len(first)) {
		t.Errorf("charged %d bytes for a %d-byte upload whose strings alone hold %d", st.used, len(first), n*4096)
	}
	if _, _, err := st.Put(siteFlood(t, "b", n)); err != nil {
		t.Fatalf("second upload: %v", err)
	}
	used := st.used
	_, _, err = st.Put(siteFlood(t, "c", n))
	if !errors.Is(err, ErrStoreFull) {
		t.Errorf("third upload into a budget of %d with %d used: err = %v, want ErrStoreFull", st.maxBytes, used, err)
	}
	if len(st.IDs()) != 2 || st.used != used {
		t.Errorf("after the refusal: %d traces, %d bytes used, want 2 and %d", len(st.IDs()), st.used, used)
	}
}

// TestStoreDedupesConcurrentTwins: identical uploads arriving while the
// first is still being decoded are answered as duplicates of it, not
// charged again, so a budget that holds one copy admits them all.
func TestStoreDedupesConcurrentTwins(t *testing.T) {
	raw := fenceFlood(t, 50_000)
	cost := decodedCost(t, raw)
	reserve := int64(50_000+2)*(opBytes+controlBytes) + int64(len(raw))
	st := NewStore(reserve + reserve/2)

	const twins = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   [twins]*Trace
		errs  [twins]error
	)
	for i := range twins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], _, errs[i] = st.Put(bytes.Clone(raw))
		}()
	}
	close(start)
	wg.Wait()
	for i := range twins {
		if errs[i] != nil || got[i] != got[0] {
			t.Errorf("upload %d = %p, %v; want the one stored trace %p", i, got[i], errs[i], got[0])
		}
	}
	if st.used != cost || st.uploads.Load() != 1 || st.dups.Load() != twins-1 || st.rejected.Load() != 0 {
		t.Errorf("used %d uploads %d dups %d rejected %d, want %d, 1, %d, 0",
			st.used, st.uploads.Load(), st.dups.Load(), st.rejected.Load(), cost, twins-1)
	}
}

// TestStoreChargesBarrierControls: an upload made only of barriers keeps
// one Control per op, so it is charged for them on top of its ops, and a
// budget one byte short of that refuses it before decoding.
func TestStoreChargesBarrierControls(t *testing.T) {
	const n = 1000
	raw := barrierFlood(t, n)
	want := int64(n)*(opBytes+controlBytes) + int64(len(raw))
	st := NewStore(want)
	tr, _, err := st.Put(raw)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops != n || st.used != want {
		t.Errorf("stored %d ops, charged %d bytes, want %d ops and %d bytes", tr.Ops, st.used, n, want)
	}
	if _, _, err := NewStore(want - 1).Put(raw); !errors.Is(err, ErrStoreFull) {
		t.Errorf("Put into a budget of %d = %v, want ErrStoreFull", want-1, err)
	}
}
