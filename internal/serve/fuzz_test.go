package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/tracefile"
)

// highBlockTrace encodes a launch of a 65,536-block grid, one allocation
// and a device fence by warp 0 of block 65,535, after a device atomicCAS
// by the same warp when cas is set: the hostile-block traces replay pins
// to a bounded allocation.
func highBlockTrace(tb testing.TB, cas bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("high-block", nil, config.Default().WithDetector(config.ModeFull4B)))
	if err != nil {
		tb.Fatal(err)
	}
	tw.KernelStart("k", 65536, 32, 0)
	tw.Alloc("lock", 0, 4)
	if cas {
		tw.Access(core.Access{Kind: core.KindAtomic, Scope: core.ScopeDevice, Strong: true, Block: 65535, Cycle: 1}, core.AtomicCAS, 4)
	}
	tw.Fence(65535, 0, core.ScopeDevice, 2, false)
	if err := tw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzServe uploads arbitrary bytes through Server.Handler and, when the
// store admits them, replays the trace under every detector as text and
// as JSON. Hostile input must get an error status and never take the
// server down: no handler panics, no replay job panics
// (scord_serve_jobs_panicked_total stays 0), and /healthz stays 200.
func FuzzServe(f *testing.F) {
	for _, name := range []string{"fence.racey.cross-none.sctr", "lock.ok.device-cross.sctr"} {
		raw, err := os.ReadFile(filepath.Join("..", "tracefile", "testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	raw, err := testTrace()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(highBlockTrace(f, false))
	f.Add(highBlockTrace(f, true))

	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(Config{Shards: 1, WorkersPerShard: 1})
		defer s.Drain()
		h := s.Handler()
		do := func(method, target string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
			return rec
		}

		up := do(http.MethodPost, "/v1/traces", data)
		switch up.Code {
		case http.StatusOK:
			var stored struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(up.Body.Bytes(), &stored); err != nil {
				t.Fatalf("upload response %q: %v", up.Body.Bytes(), err)
			}
			req := []byte(`{"trace":"` + stored.ID + `","detector":"all","no_cache":true}`)
			for _, target := range []string{"/v1/replay?format=text", "/v1/replay"} {
				// A replay may fail (a trace recorded with detection off
				// has no ScoRD configuration to replay), but only with
				// a labelled error, not a panic.
				rec := do(http.MethodPost, target, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusInternalServerError {
					t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body.Bytes())
				}
				if rec.Code != http.StatusOK && !strings.HasPrefix(rec.Body.String(), "replay: ") {
					t.Fatalf("%s: status %d without a replay error: %s", target, rec.Code, rec.Body.Bytes())
				}
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusInsufficientStorage:
		default:
			t.Fatalf("upload: status %d: %s", up.Code, up.Body.Bytes())
		}

		if rec := do(http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
			t.Fatalf("/healthz: status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec := do(http.MethodGet, "/metrics", nil); !strings.Contains(rec.Body.String(), "\nscord_serve_jobs_panicked_total 0\n") {
			t.Fatal("a replay job panicked: scord_serve_jobs_panicked_total is not 0")
		}
	})
}
