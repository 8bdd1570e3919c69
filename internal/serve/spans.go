package serve

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"io"
	"net/http"
	"sync"

	"scord/internal/obs"
	"scord/internal/obs/tracing"
)

// SpanStore retains the wall-clock span trees of recent requests, keyed
// by trace ID, so an exemplar trace ID scraped from /metrics (or a
// traceparent echoed to a client) resolves to the request's full span
// tree via GET /v1/spans?trace=<id>. A tree is kept as its finished
// tracer and serialized only when read. The store is bounded FIFO: past
// cap entries the oldest trace is evicted — it is a debugging window,
// not an archive.
type SpanStore struct {
	mu      sync.Mutex
	traces  map[string]*tracing.Tracer
	order   []string
	cap     int
	evicted int64
}

// NewSpanStore builds a store retaining at most cap traces.
func NewSpanStore(cap int) *SpanStore {
	if cap < 1 {
		cap = 1
	}
	return &SpanStore{traces: map[string]*tracing.Tracer{}, cap: cap}
}

// Put stores one request's finished span tree under its trace ID,
// evicting the oldest past the cap. Re-putting an existing trace ID
// replaces its tree in place. Nothing may change tr afterwards.
func (ss *SpanStore) Put(tr *tracing.Tracer) {
	traceID := tr.TraceID().String()
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.traces[traceID]; ok {
		ss.traces[traceID] = tr
		return
	}
	for len(ss.order) >= ss.cap {
		delete(ss.traces, ss.order[0])
		ss.order = ss.order[1:]
		ss.evicted++
	}
	ss.traces[traceID] = tr
	ss.order = append(ss.order, traceID)
}

// Get renders the span tree stored for a trace ID as span JSON
// (tracing.Tracer.WriteJSON). Rendering holds the store's lock, so
// concurrent reads of one tree never race.
func (ss *SpanStore) Get(traceID string) ([]byte, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	tr, ok := ss.traces[traceID]
	if !ok {
		return nil, false
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, false
	}
	return buf.Bytes(), true
}

// Len returns the stored trace count.
func (ss *SpanStore) Len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.order)
}

// Name implements Component.
func (ss *SpanStore) Name() string { return "spans" }

// Healthy implements Component: a bounded FIFO cannot fail.
func (ss *SpanStore) Healthy() (bool, string) { return true, "ok" }

// Status implements Component.
func (ss *SpanStore) Status() any {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return map[string]any{
		"stored":  len(ss.order),
		"cap":     ss.cap,
		"evicted": ss.evicted,
	}
}

// WritePrometheus implements obs.MetricsWriter.
func (ss *SpanStore) WritePrometheus(w io.Writer) error {
	ss.mu.Lock()
	stored, evicted := len(ss.order), ss.evicted
	ss.mu.Unlock()
	_, err := fmt.Fprintf(w,
		"# HELP scord_serve_spans_stored request span trees retained\n# TYPE scord_serve_spans_stored gauge\nscord_serve_spans_stored %d\n"+
			"# HELP scord_serve_spans_evicted_total span trees evicted from the bounded store\n# TYPE scord_serve_spans_evicted_total counter\nscord_serve_spans_evicted_total %d\n",
		stored, evicted)
	return err
}

// mintTraceID draws a random W3C trace ID for requests that arrive
// without a traceparent header. Randomness is fine here: the serve path
// runs on the wall clock and is explicitly outside the simulator's
// determinism contract.
func mintTraceID() tracing.TraceID {
	var id tracing.TraceID
	if _, err := rand.Read(id[:]); err != nil || id.IsZero() {
		// Entropy exhaustion is not a real failure mode, but a zero
		// trace ID is invalid in W3C terms; derive a fixed fallback.
		id = tracing.DeriveTraceID("scord-serve", "fallback")
	}
	return id
}

// requestTrace carries one request's wall-clock tracer and the fields
// the structured request log reports at completion.
type requestTrace struct {
	tr   *tracing.Tracer
	root *tracing.Span
	// propagated reports that the client supplied a valid traceparent
	// (the root span's parent is the client's span).
	propagated bool

	// log fields, filled in as the handler learns them
	tenant      string
	traceHash   string
	shard       int
	queueWaitUS uint64
	cache       string
	status      int
}

// beginTrace starts a request's wall-clock span tree: the trace ID and
// parent span come from a valid client traceparent header, otherwise a
// fresh trace ID is minted. The response always carries a traceparent
// header naming the root span, so clients can join their records to
// /v1/spans either way.
func (s *Server) beginTrace(w http.ResponseWriter, r *http.Request, name string) *requestTrace {
	rt := &requestTrace{status: http.StatusOK, cache: "-"}
	var parent tracing.SpanID
	traceID := tracing.TraceID{}
	if tp, ok := tracing.ParseTraceparent(r.Header.Get("traceparent")); ok {
		traceID, parent, rt.propagated = tp.TraceID, tp.SpanID, true
	} else {
		traceID = mintTraceID()
	}
	rt.tr = tracing.New(tracing.ClockWall, traceID, s.clock)
	if rt.propagated {
		rt.root = rt.tr.StartRootUnder(parent, name)
	} else {
		rt.root = rt.tr.StartRoot(name)
	}
	w.Header().Set("traceparent", tracing.Traceparent{
		TraceID: traceID, SpanID: rt.root.ID(), Flags: tracing.FlagSampled,
	}.String())
	return rt
}

// finish closes the root span, stores the span tree for /v1/spans, logs
// the structured request line, and feeds the latency histogram with the
// trace ID as exemplar.
func (s *Server) finishTrace(rt *requestTrace, hist *obs.Histogram, msg string) {
	rt.root.Finish()
	durUS := rt.root.EndTime() - rt.root.Start()
	s.spans.Put(rt.tr)
	hist.Observe(float64(durUS)/1e6, rt.tr.TraceID().String())
	s.log.Info(msg,
		"trace_id", rt.tr.TraceID().String(),
		"tenant", rt.tenant,
		"trace", rt.traceHash,
		"shard", rt.shard,
		"queue_wait_us", rt.queueWaitUS,
		"cache", rt.cache,
		"status", rt.status,
		"dur_us", durUS,
		"propagated", rt.propagated,
	)
}
