package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/harness"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// testTrace records the fence microbenchmark once per test binary and
// returns the raw SCTR bytes.
var testTrace = sync.OnceValues(func() ([]byte, error) {
	var bench scor.Benchmark
	for _, b := range micro.Benchmarks() {
		if b.Name() == "fence.racey.cross-none" {
			bench = b
			break
		}
	}
	if bench == nil {
		return nil, fmt.Errorf("fence.racey.cross-none not registered")
	}
	var buf bytes.Buffer
	err := harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(),
		"serve-test", bench, config.ModeFull4B, nil, &buf)
	return buf.Bytes(), err
})

func traceBytes(t *testing.T) []byte {
	t.Helper()
	raw, err := testTrace()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	return s, ts
}

func upload(t *testing.T, ts *httptest.Server, raw []byte) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("upload response %q: %v", body, err)
	}
	return out.ID
}

func postReplay(t *testing.T, ts *httptest.Server, query string, req replayRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/replay"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestUploadValidationAndDedup: a valid trace is admitted and content-
// addressed; re-uploading identical bytes dedupes; corrupt bytes are
// rejected before they reach the store.
func TestUploadValidationAndDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw := traceBytes(t)

	id := upload(t, ts, raw)
	if len(id) != 64 {
		t.Errorf("trace ID %q is not a sha256 hex digest", id)
	}

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var dup struct {
		ID  string `json:"id"`
		Dup bool   `json:"dup"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dup); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !dup.Dup || dup.ID != id {
		t.Errorf("re-upload: dup=%v id=%q, want dup=true id=%q", dup.Dup, dup.ID, id)
	}

	// A flipped payload byte fails the CRC-validated decode; a
	// well-formed store beyond the header's 2 MB arena fails its address
	// check, before any replay could index detector metadata with it.
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0xff
	var stray bytes.Buffer
	tw, err := tracefile.NewWriter(&stray, tracefile.NewHeader("stray", nil, config.Default()))
	if err != nil {
		t.Fatal(err)
	}
	tw.Alloc("data", 0, 4096)
	tw.KernelStart("kern", 1, 32, 0)
	tw.Access(core.Access{Kind: core.KindStore, Addr: 4 << 20}, core.AtomicOther, 4)
	tw.KernelEnd("kern", 10)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"corrupt": bad, "out-of-arena": stray.Bytes()} {
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s upload status = %d, want 400", name, resp.StatusCode)
		}
	}

	// List shows exactly the one stored trace.
	lresp, err := http.Get(ts.URL + "/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []string `json:"traces"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list.Traces) != 1 || list.Traces[0] != id {
		t.Errorf("trace list = %v, want [%s]", list.Traces, id)
	}
}

// TestUploadRejectsHostileHeaders: a header whose configuration no device
// could run with, or whose arena exceeds 1 GB, gets 400 at upload and is
// not stored, rather than failing or costing gigabytes on every replay.
func TestUploadRejectsHostileHeaders(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	noAssoc := config.Default()
	noAssoc.L1Assoc = 0
	huge := config.Default()
	huge.DeviceMemBytes = 1 << 40
	for name, cfg := range map[string]config.Config{"L1Assoc 0": noAssoc, "1 TB arena": huge} {
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader("hostile", nil, cfg))
		if err != nil {
			t.Fatal(err)
		}
		tw.Alloc("data", 0, 4096)
		tw.KernelStart("kern", 1, 32, 0)
		tw.Access(core.Access{Kind: core.KindStore, Addr: 64, Cycle: 5}, core.AtomicOther, 4)
		tw.KernelEnd("kern", 10)
		if err := tw.Close(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: upload status = %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if ids := s.Store().IDs(); len(ids) != 0 {
		t.Errorf("store holds %v after rejected uploads, want nothing", ids)
	}
}

// TestUploadTooLarge: uploads beyond MaxUploadBytes get 413.
func TestUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 128})
	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream",
		bytes.NewReader(make([]byte, 4096)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload status = %d, want 413", resp.StatusCode)
	}
}

// offlineText renders the expected replay output for raw under the full
// detector set, through the same replay package the CLI uses.
func offlineText(t *testing.T, raw []byte, cfg config.Config) []byte {
	t.Helper()
	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := replay.ReadAll(rd)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, name := range replay.TargetNames() {
		tgt, err := replay.TargetByName(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := replay.RunOps(rd.Header(), ops, tgt)
		if err != nil {
			t.Fatal(err)
		}
		res.WriteText(&buf)
	}
	return buf.Bytes()
}

// TestReplayMatchesOfflineAndCaches: the HTTP text response equals the
// offline rendering byte for byte; an identical second request is a
// cache hit returning the exact same bytes; no_cache bypasses the cache.
func TestReplayMatchesOfflineAndCaches(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	raw := traceBytes(t)
	id := upload(t, ts, raw)

	req := replayRequest{Trace: id, Detector: "all"}
	resp, miss := postReplay(t, ts, "?format=text", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d: %s", resp.StatusCode, miss)
	}
	if got := resp.Header.Get("X-Scord-Cache"); got != "miss" {
		t.Errorf("first replay X-Scord-Cache = %q, want miss", got)
	}

	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := offlineText(t, raw, rd.Header().Config)
	if !bytes.Equal(miss, want) {
		t.Errorf("HTTP replay differs from offline rendering:\n--- http ---\n%s\n--- offline ---\n%s", miss, want)
	}

	resp, hit := postReplay(t, ts, "?format=text", req)
	if got := resp.Header.Get("X-Scord-Cache"); got != "hit" {
		t.Errorf("second replay X-Scord-Cache = %q, want hit", got)
	}
	if !bytes.Equal(hit, miss) {
		t.Errorf("cache hit bytes differ from the miss that populated it")
	}
	if hits, misses := s.Cache().Counters(); hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}

	// A mode override is a different config hash — a miss, not a hit.
	resp, _ = postReplay(t, ts, "?format=text", replayRequest{Trace: id, Detector: "all", Mode: "gran8"})
	if got := resp.Header.Get("X-Scord-Cache"); got != "miss" {
		t.Errorf("mode-override replay X-Scord-Cache = %q, want miss", got)
	}

	// no_cache requests never read nor populate the cache.
	before := s.Cache().Len()
	resp, _ = postReplay(t, ts, "", replayRequest{Trace: id, Detector: "scord", NoCache: true})
	if got := resp.Header.Get("X-Scord-Cache"); got != "miss" {
		t.Errorf("no_cache replay X-Scord-Cache = %q, want miss", got)
	}
	if s.Cache().Len() != before {
		t.Errorf("no_cache replay grew the cache: %d -> %d", before, s.Cache().Len())
	}
}

// TestReplayJSONShape: the JSON body names every detector in canonical
// order and carries the trace's op counts.
func TestReplayJSONShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, traceBytes(t))
	resp, body := postReplay(t, ts, "", replayRequest{Trace: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Trace     string `json:"trace"`
		Detectors []struct {
			Detector string   `json:"detector"`
			Ops      int      `json:"ops"`
			Races    []string `json:"races"`
		} `json:"detectors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("json body %q: %v", body, err)
	}
	if out.Trace != id {
		t.Errorf("trace = %q, want %q", out.Trace, id)
	}
	if len(out.Detectors) != len(replay.TargetNames()) {
		t.Fatalf("%d detector sections, want %d", len(out.Detectors), len(replay.TargetNames()))
	}
	for _, d := range out.Detectors {
		if d.Ops == 0 {
			t.Errorf("detector %q reports 0 ops", d.Detector)
		}
	}
}

// TestReplayErrors: unknown traces, detectors and modes map to 404/400.
func TestReplayErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := upload(t, ts, traceBytes(t))

	resp, _ := postReplay(t, ts, "", replayRequest{Trace: strings.Repeat("0", 64)})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postReplay(t, ts, "", replayRequest{Trace: id, Detector: "nonesuch"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown detector status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postReplay(t, ts, "", replayRequest{Trace: id, Mode: "nonesuch"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown mode status = %d, want 400", resp.StatusCode)
	}
}

// TestReplayBackpressure429: with the single worker parked and the
// depth-1 queue holding one waiting request, the next replay is turned
// away with 429 and a Retry-After hint — and the queued request still
// completes successfully.
func TestReplayBackpressure429(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 1})
	id := upload(t, ts, traceBytes(t))

	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := s.Pool().Submit("default", func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	// First replay occupies the queue slot; it blocks until release.
	firstDone := make(chan int, 1)
	go func() {
		resp, _ := postReplay(t, ts, "", replayRequest{Trace: id, Detector: "scord"})
		firstDone <- resp.StatusCode
	}()
	waitFor(t, func() bool { return s.Pool().Queued() == 1 })

	resp, body := postReplay(t, ts, "", replayRequest{Trace: id, Detector: "scord", NoCache: true})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated replay status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	close(release)
	if code := <-firstDone; code != http.StatusOK {
		t.Errorf("queued replay completed with %d, want 200", code)
	}
}

// TestGracefulDrain: a replay accepted before Drain completes with a
// full correct response; replays and uploads arriving during the drain
// are refused with 503; Drain returns only after the accepted job is
// done.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1, QueueDepth: 8})
	raw := traceBytes(t)
	id := upload(t, ts, raw)

	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := s.Pool().Submit("default", func() {
		close(started)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	<-started

	type result struct {
		code int
		body []byte
	}
	accepted := make(chan result, 1)
	go func() {
		resp, body := postReplay(t, ts, "?format=text", replayRequest{Trace: id, Detector: "all"})
		accepted <- result{resp.StatusCode, body}
	}()
	waitFor(t, func() bool { return s.Pool().Queued() == 1 })

	drained := make(chan struct{})
	go func() {
		s.Drain()
		close(drained)
	}()
	waitFor(t, func() bool { return s.Draining() })

	// New work is refused while the drain is in progress.
	resp, _ := postReplay(t, ts, "", replayRequest{Trace: id, Detector: "scord"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("replay during drain status = %d, want 503", resp.StatusCode)
	}
	uresp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, uresp.Body)
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("upload during drain status = %d, want 503", uresp.StatusCode)
	}

	select {
	case <-drained:
		t.Fatal("Drain returned while an accepted job was still queued")
	default:
	}

	close(release)
	<-drained
	got := <-accepted
	if got.code != http.StatusOK {
		t.Fatalf("accepted replay finished with %d across drain, want 200", got.code)
	}
	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if want := offlineText(t, raw, rd.Header().Config); !bytes.Equal(got.body, want) {
		t.Errorf("drained-through replay body differs from offline rendering")
	}
}

// TestHealthzStatusz: healthy before drain, 503 with a reason after;
// statusz always renders every component.
func TestHealthzStatusz(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	s.Drain()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz during drain = %d %q, want 503 draining", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Draining   bool                       `json:"draining"`
		Components map[string]json.RawMessage `json:"components"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !status.Draining {
		t.Error("statusz draining = false after Drain")
	}
	for _, name := range []string{"pool", "store", "cache"} {
		if _, ok := status.Components[name]; !ok {
			t.Errorf("statusz missing component %q", name)
		}
	}
}

// TestMetricsExposesServeSeries: /metrics carries the pool, store and
// cache series alongside the standard mux routes.
func TestMetricsExposesServeSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, traceBytes(t))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"scord_serve_workers", "scord_serve_queue_depth",
		"scord_serve_store_traces 1", "scord_serve_cache_entries",
		"scord_serve_jobs_submitted_total",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
	for _, route := range []string{"/debug/vars", "/debug/pprof/cmdline"} {
		r2, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r2.Body)
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d, want 200", route, r2.StatusCode)
		}
	}
}

// TestScrapeDrainRace hammers /metrics and /statusz from several
// goroutines while replays execute and the server drains — the -race
// build verifies the counters and component snapshots are safe under
// concurrent scrape + drain.
func TestScrapeDrainRace(t *testing.T) {
	s, ts := newTestServer(t, Config{Shards: 2, WorkersPerShard: 2, QueueDepth: 16})
	id := upload(t, ts, traceBytes(t))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, route := range []string{"/metrics", "/statusz", "/healthz"} {
					resp, err := http.Get(ts.URL + route)
					if err != nil {
						return // server closing
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		postReplay(t, ts, "", replayRequest{Trace: id, Detector: "scord", NoCache: i%2 == 0})
	}
	s.Drain()
	close(stop)
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(time.Millisecond)
	}
}
