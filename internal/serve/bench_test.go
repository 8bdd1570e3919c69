package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// replayRequestPath uploads the fence micro to a fresh server and
// returns one perfbench-style request: POST /v1/replay?format=text under
// every detector with the cache bypassed, through Server.Handler into a
// recorder.
func replayRequestPath(tb testing.TB) func() {
	tb.Helper()
	raw, err := testTrace()
	if err != nil {
		tb.Fatal(err)
	}
	s := New(Config{})
	tb.Cleanup(s.Drain)
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("upload status %d: %s", rec.Code, rec.Body.Bytes())
	}
	body := []byte(`{"trace":"` + s.Store().IDs()[0] + `","detector":"all","no_cache":true}`)
	return func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/replay?format=text", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("replay status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// TestReplayRequestAllocs gates the heap allocations of one request at
// 260 and its heap bytes at 64 KB. A request that replays the stored ops
// and renders only the text body makes 205 allocations; re-opening the
// raw upload, capturing provenance and rendering the JSON body as well,
// with the span tree serialized at finish, made 373. Its bytes are
// mostly the five models and the body: a request allocates about 42 KB,
// where models with arena- and grid-sized state from construction on
// took 141.7 KB.
func TestReplayRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	req := replayRequestPath(t)
	allocs := testing.AllocsPerRun(200, req)
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		req()
	}
	runtime.ReadMemStats(&after)
	perReq := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %d bytes per request", allocs, perReq)
	if allocs > 260 {
		t.Errorf("one replay request made %.0f allocations, want at most 260", allocs)
	}
	if perReq > 64<<10 {
		t.Errorf("one replay request allocated %d bytes, want at most 64 KB", perReq)
	}
}

// BenchmarkReplayRequest times one request end to end in process.
func BenchmarkReplayRequest(b *testing.B) {
	req := replayRequestPath(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req()
	}
}
