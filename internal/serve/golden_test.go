package serve

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the span goldens under testdata/")

// TestSpanBytesGolden: with a counting clock in place of the wall clock,
// the span trees GET /v1/spans returns for one upload request and for
// three replay requests (a text miss, the same request again as a cache
// hit, and an uncached JSON replay) are exactly the bytes in testdata/.
// They were written when each request's tree was serialized as it
// finished, so rendering a stored tree when it is read must not change
// one byte.
func TestSpanBytesGolden(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 1})
	t.Cleanup(s.Drain)
	var tick atomic.Uint64
	s.clock = func() uint64 { return tick.Add(1) }
	h := s.Handler()
	do := func(method, target, traceparent string, body []byte) []byte {
		t.Helper()
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}

	traceparent := func(trace string) string { return "00-" + trace + "-00f067aa0ba902b7-01" }
	const (
		uploadTrace = "11111111111111111111111111111111"
		textTrace   = "22222222222222222222222222222222"
		hitTrace    = "33333333333333333333333333333333"
		jsonTrace   = "44444444444444444444444444444444"
	)
	do(http.MethodPost, "/v1/traces", traceparent(uploadTrace), traceBytes(t))
	id := s.Store().IDs()[0]
	replay := []byte(`{"trace":"` + id + `","detector":"all"}`)
	do(http.MethodPost, "/v1/replay?format=text", traceparent(textTrace), replay)
	do(http.MethodPost, "/v1/replay?format=text", traceparent(hitTrace), replay)
	do(http.MethodPost, "/v1/replay", traceparent(jsonTrace),
		[]byte(`{"trace":"`+id+`","detector":"all","no_cache":true}`))

	for _, c := range []struct{ file, trace string }{
		{"spans-upload.json", uploadTrace},
		{"spans-replay-text.json", textTrace},
		{"spans-replay-hit.json", hitTrace},
		{"spans-replay-json.json", jsonTrace},
	} {
		got := do(http.MethodGet, "/v1/spans?trace="+c.trace, "", nil)
		path := filepath.Join("testdata", c.file)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: /v1/spans differs from the golden\n--- got ---\n%s\n--- want ---\n%s", c.file, got, want)
		}
	}
}
