package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"scord/internal/core"
	"scord/internal/obs/tracing"
)

// replayOnce posts one /v1/replay request with optional extra headers
// and returns the response.
func replayOnce(t *testing.T, url, id string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/replay",
		strings.NewReader(`{"trace":"`+id+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("replay status %d: %s", resp.StatusCode, body)
	}
	return resp
}

// spanTree fetches and decodes /v1/spans for one trace ID.
func spanTree(t *testing.T, url, traceID string) tracing.Export {
	t.Helper()
	resp, err := http.Get(url + "/v1/spans?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("spans status %d: %s", resp.StatusCode, body)
	}
	var ex tracing.Export
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// TestTraceparentPropagation: a client-supplied traceparent's trace ID
// survives into the response header, the request log domain, and the
// stored span tree, whose root span is parented under the client's span
// and whose worker spans descend from it.
func TestTraceparentPropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	id := upload(t, ts, traceBytes(t))

	const clientTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	const clientSpan = "00f067aa0ba902b7"
	resp := replayOnce(t, ts.URL, id, map[string]string{
		"traceparent": "00-" + clientTrace + "-" + clientSpan + "-01",
	})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	tp, ok := tracing.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", resp.Header.Get("traceparent"))
	}
	if tp.TraceID.String() != clientTrace {
		t.Fatalf("response trace ID %s, want client's %s", tp.TraceID, clientTrace)
	}

	ex := spanTree(t, ts.URL, clientTrace)
	if ex.Domain != tracing.ClockWall {
		t.Errorf("span domain = %q, want wall", ex.Domain)
	}
	byName := map[string]tracing.ExportSpan{}
	for _, s := range ex.Spans {
		byName[s.Name] = s
	}
	root, ok := byName["http POST /v1/replay"]
	if !ok {
		t.Fatalf("no root span; have %v", names(ex))
	}
	if root.ParentID != clientSpan {
		t.Errorf("root parent = %q, want the client span %q", root.ParentID, clientSpan)
	}
	// The propagated context must reach the worker: shard-worker and
	// replay spans belong to the same trace, under the root.
	worker, ok := byName["shard-worker"]
	if !ok {
		t.Fatalf("no shard-worker span; have %v", names(ex))
	}
	if worker.ParentID != root.SpanID {
		t.Errorf("shard-worker parent = %q, want root %q", worker.ParentID, root.SpanID)
	}
	rep, ok := byName["replay"]
	if !ok {
		t.Fatalf("no replay span; have %v", names(ex))
	}
	if rep.ParentID != worker.SpanID {
		t.Errorf("replay parent = %q, want shard-worker %q", rep.ParentID, worker.SpanID)
	}
	for _, want := range []string{"admission", "queue-wait", "render"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("missing %q span; have %v", want, names(ex))
		}
	}
}

func names(ex tracing.Export) []string {
	var out []string
	for _, s := range ex.Spans {
		out = append(out, s.Name)
	}
	return out
}

// TestMintedTraceWithoutTraceparent: a request without a traceparent
// still gets a trace — minted ID in the response header, resolvable via
// /v1/spans.
func TestMintedTraceWithoutTraceparent(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	id := upload(t, ts, traceBytes(t))
	resp := replayOnce(t, ts.URL, id, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	tp, ok := tracing.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("response traceparent %q unparseable", resp.Header.Get("traceparent"))
	}
	ex := spanTree(t, ts.URL, tp.TraceID.String())
	if len(ex.Spans) == 0 {
		t.Fatal("no spans stored for minted trace")
	}
	if ex.Spans[0].ParentID != "" {
		t.Errorf("minted trace root has parent %q", ex.Spans[0].ParentID)
	}
}

// TestSpansEndpointErrors: missing and unknown trace IDs fail cleanly.
func TestSpansEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/v1/spans", http.StatusBadRequest},
		{"/v1/spans?trace=ffffffffffffffffffffffffffffffff", http.StatusNotFound},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
	}
}

// TestReplayProvenanceField: the JSON replay response carries the ScoRD
// detector's evidence records, aligned with its races, while the
// comparison models carry none.
func TestReplayProvenanceField(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	id := upload(t, ts, traceBytes(t))
	resp := replayOnce(t, ts.URL, id, nil)
	defer resp.Body.Close()
	var out struct {
		Detectors []struct {
			Detector   string          `json:"detector"`
			Races      []string        `json:"races"`
			Provenance []core.Evidence `json:"provenance"`
		} `json:"detectors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	sawScoRD := false
	for _, d := range out.Detectors {
		if d.Detector != "ScoRD" {
			if len(d.Provenance) != 0 {
				t.Errorf("%s: unexpected provenance", d.Detector)
			}
			continue
		}
		sawScoRD = true
		if len(d.Races) == 0 {
			t.Fatal("ScoRD reported no races on the racey fence micro")
		}
		if len(d.Provenance) != len(d.Races) {
			t.Fatalf("provenance entries = %d, races = %d", len(d.Provenance), len(d.Races))
		}
		ev := d.Provenance[0]
		if ev.TableRow != "Table IV (b)" {
			t.Errorf("table row = %q, want Table IV (b)", ev.TableRow)
		}
		if ev.Prev.Site == "" || ev.Cur.Site == "" {
			t.Errorf("evidence sides missing sites: %+v", ev)
		}
	}
	if !sawScoRD {
		t.Fatal("no ScoRD result in response")
	}
}

// TestMetricsExemplars: after a replay, the latency histogram exposes an
// exemplar whose trace ID resolves to the stored span tree.
func TestMetricsExemplars(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 1, WorkersPerShard: 1})
	id := upload(t, ts, traceBytes(t))
	resp := replayOnce(t, ts.URL, id, nil)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	scrape, _ := io.ReadAll(mresp.Body)
	var exemplarTrace string
	for _, line := range strings.Split(string(scrape), "\n") {
		if !strings.HasPrefix(line, "scord_serve_replay_seconds_bucket") {
			continue
		}
		if _, after, ok := strings.Cut(line, `# {trace_id="`); ok {
			exemplarTrace, _, _ = strings.Cut(after, `"`)
			break
		}
	}
	if exemplarTrace == "" {
		t.Fatalf("no exemplar on scord_serve_replay_seconds_bucket:\n%s", scrape)
	}
	ex := spanTree(t, ts.URL, exemplarTrace)
	if len(ex.Spans) == 0 || ex.Spans[0].Name != "http POST /v1/replay" {
		t.Errorf("exemplar trace %s did not resolve to the replay request's span tree", exemplarTrace)
	}
}

// TestSpanStoreBounded: the FIFO store never exceeds its cap and evicts
// oldest-first.
func TestSpanStoreBounded(t *testing.T) {
	tree := func(trace, root string) *tracing.Tracer {
		tr := tracing.New(tracing.ClockWall, tracing.DeriveTraceID(trace), func() uint64 { return 7 })
		tr.StartRoot(root).Finish()
		return tr
	}
	id := func(trace string) string { return tracing.DeriveTraceID(trace).String() }
	render := func(tr *tracing.Tracer) []byte {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ss := NewSpanStore(2)
	ss.Put(tree("a", "1"))
	ss.Put(tree("b", "2"))
	c := tree("c", "3")
	ss.Put(c)
	if ss.Len() != 2 {
		t.Fatalf("len = %d, want 2", ss.Len())
	}
	if _, ok := ss.Get(id("a")); ok {
		t.Error("oldest trace not evicted")
	}
	if b, ok := ss.Get(id("c")); !ok || !bytes.Equal(b, render(c)) {
		t.Error("newest trace missing")
	}
	// Replacing in place neither grows nor evicts.
	b2 := tree("b", "2b")
	if bytes.Equal(render(b2), render(tree("b", "2"))) {
		t.Fatal("replacement renders like the tree it replaces")
	}
	ss.Put(b2)
	if ss.Len() != 2 {
		t.Fatalf("len after replace = %d", ss.Len())
	}
	if b, _ := ss.Get(id("b")); !bytes.Equal(b, render(b2)) {
		t.Error("replace did not update body")
	}
}

// TestConcurrentSpanReads: goroutines reading one stored span tree while
// other requests store theirs all get the same bytes; under -race
// nothing races, since a tree is rendered only when read.
func TestConcurrentSpanReads(t *testing.T) {
	s := New(Config{Shards: 1, WorkersPerShard: 1})
	t.Cleanup(s.Drain)
	h := s.Handler()
	raw := traceBytes(t)
	if rec := serveDirect(h, http.MethodPost, "/v1/traces", raw); rec.Code != http.StatusOK {
		t.Fatalf("upload status %d: %s", rec.Code, rec.Body.Bytes())
	}
	body := []byte(`{"trace":"` + contentID(raw) + `","detector":"scord","no_cache":true}`)
	const trace = "6bf92f3577b34da6a3ce929d0e0e4736"
	req := httptest.NewRequest(http.MethodPost, "/v1/replay?format=text", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+trace+"-00f067aa0ba902b7-01")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("replay status %d: %s", rec.Code, rec.Body.Bytes())
	}
	want := serveDirect(h, http.MethodGet, "/v1/spans?trace="+trace, nil).Body.Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				serveDirect(h, http.MethodPost, "/v1/replay?format=text", body)
				got := serveDirect(h, http.MethodGet, "/v1/spans?trace="+trace, nil)
				if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want) {
					t.Errorf("concurrent /v1/spans read = %d, same bytes %v", got.Code, bytes.Equal(got.Body.Bytes(), want))
				}
			}
		}()
	}
	wg.Wait()
}
