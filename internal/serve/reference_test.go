package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// referenceOutcome is the replay path as it was before the store kept
// decoded ops: it re-opens the raw upload on every call and renders both
// bodies from one replay, with provenance captured for both. Every
// response body must equal the matching one of these byte for byte.
func referenceOutcome(id string, raw []byte, names []string, cfg config.Config) (jsonBody, textBody []byte, err error) {
	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	ops, err := replay.ReadAll(rd)
	if err != nil {
		return nil, nil, err
	}
	var (
		text    bytes.Buffer
		results []detectorResult
	)
	for _, name := range names {
		t, err := replay.TargetByName(name, cfg)
		if err != nil {
			return nil, nil, err
		}
		sc, isScoRD := t.(*replay.ScoRD)
		if isScoRD {
			sc.EnableProvenance()
		}
		res, err := replay.RunOps(rd.Header(), ops, t)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		res.WriteText(&text)
		races := make([]string, 0, len(res.Races))
		for _, rec := range res.Races {
			races = append(races, res.DescribeRecord(rec))
		}
		dr := detectorResult{
			Detector: res.Detector,
			Ops:      res.Ops,
			Accesses: res.Accesses,
			Kernels:  res.Kernels,
			Races:    races,
		}
		if isScoRD {
			for _, rec := range res.Races {
				if ev, ok := sc.EvidenceFor(rec); ok {
					dr.Provenance = append(dr.Provenance, ev)
				}
			}
		}
		results = append(results, dr)
	}
	jsonBody, err = json.Marshal(map[string]any{
		"trace":       id,
		"config_hash": tracefile.HashConfig(cfg),
		"detectors":   results,
	})
	if err != nil {
		return nil, nil, err
	}
	return jsonBody, text.Bytes(), nil
}

// microTraces records every micro once per test binary, as testTrace
// records the fence micro.
var microTraces = sync.OnceValues(func() (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, b := range micro.Benchmarks() {
		var buf bytes.Buffer
		if err := harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(),
			"serve-test", b, config.ModeFull4B, nil, &buf); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name(), err)
		}
		out[b.Name()] = buf.Bytes()
	}
	return out, nil
})

// contentID is the ID an upload of raw is stored under.
func contentID(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// serveDirect sends one request through h and returns the recorder.
func serveDirect(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec
}

// replayBodies requests the text and the JSON body of one replay,
// bypassing the cache.
func replayBodies(t *testing.T, h http.Handler, req replayRequest) (jsonBody, textBody []byte) {
	t.Helper()
	req.NoCache = true
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var bodies [2][]byte
	for i, target := range []string{"/v1/replay", "/v1/replay?format=text"} {
		rec := serveDirect(h, http.MethodPost, target, b)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %+v: status %d: %s", target, req, rec.Code, rec.Body.Bytes())
		}
		bodies[i] = rec.Body.Bytes()
	}
	return bodies[0], bodies[1]
}

// TestBodiesMatchReference: for the fence trace and every other micro,
// under the recorded mode and a gran8 override, for all detectors and
// for ScoRD alone, the text body and the JSON body each equal the
// reference's byte for byte.
func TestBodiesMatchReference(t *testing.T) {
	traces, err := microTraces()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traces["fence.racey.cross-none"], traceBytes(t)) {
		t.Fatal("the micro recordings do not include the fence trace")
	}
	s := New(Config{})
	t.Cleanup(s.Drain)
	h := s.Handler()
	for name, raw := range traces {
		rec := serveDirect(h, http.MethodPost, "/v1/traces", raw)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: upload status %d: %s", name, rec.Code, rec.Body.Bytes())
		}
		tr, _ := s.Store().Get(contentID(raw))
		for _, mode := range []string{"", "gran8"} {
			cfg := tr.Header.Config
			if mode != "" {
				dm, err := config.ParseMode(mode)
				if err != nil {
					t.Fatal(err)
				}
				cfg = cfg.WithDetector(dm)
			}
			for _, detector := range []string{"all", "scord"} {
				names, err := detectorList(detector)
				if err != nil {
					t.Fatal(err)
				}
				wantJSON, wantText, err := referenceOutcome(tr.ID, raw, names, cfg)
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, gotText := replayBodies(t, h, replayRequest{Trace: tr.ID, Detector: detector, Mode: mode})
				if !bytes.Equal(gotText, wantText) {
					t.Errorf("%s mode=%q detector=%s: text body differs from the reference\n--- got ---\n%s\n--- want ---\n%s",
						name, mode, detector, gotText, wantText)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("%s mode=%q detector=%s: JSON body differs from the reference\n--- got ---\n%s\n--- want ---\n%s",
						name, mode, detector, gotJSON, wantJSON)
				}
			}
		}
	}
}

// TestConcurrentReplaysAgree: goroutines replaying one stored trace at
// once share its decoded ops; under -race nothing races, and every body
// equals the reference's.
func TestConcurrentReplaysAgree(t *testing.T) {
	s := New(Config{Shards: 2, WorkersPerShard: 2})
	t.Cleanup(s.Drain)
	h := s.Handler()
	raw := traceBytes(t)
	if rec := serveDirect(h, http.MethodPost, "/v1/traces", raw); rec.Code != http.StatusOK {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.Bytes())
	}
	tr, _ := s.Store().Get(contentID(raw))
	wantJSON, wantText, err := referenceOutcome(tr.ID, raw, replay.TargetNames(), tr.Header.Config)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range []struct {
				target string
				want   []byte
			}{{"/v1/replay?format=text", wantText}, {"/v1/replay", wantJSON}} {
				rec := serveDirect(h, http.MethodPost, c.target,
					[]byte(`{"trace":"`+tr.ID+`","detector":"all","no_cache":true}`))
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", c.target, rec.Code, rec.Body.Bytes())
					continue
				}
				if !bytes.Equal(rec.Body.Bytes(), c.want) {
					t.Errorf("%s: concurrent body differs from the reference", c.target)
				}
			}
		}()
	}
	wg.Wait()
}
