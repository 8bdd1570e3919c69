// Package serve turns the replay engine into a long-running service:
// upload an SCTR trace once, replay it under any detector set many
// times, over HTTP. The building blocks mirror the offline pipeline —
// tracefile.Reader validates and decodes uploads, replay.RunOps executes
// jobs — so an HTTP replay is byte-identical to `scord-replay replay` on
// the same trace.
//
// The package composes four parts:
//
//   - Store:       content-addressed, fully-validated, decoded uploads
//   - Pool:        sharded bounded workers with per-tenant fairness
//   - ResultCache: LRU over rendered bodies keyed by content hashes
//   - Server:      the HTTP API mounted on the obs telemetry mux
//
// Every part implements Component (health + status for /healthz and
// /statusz) and obs.MetricsWriter (Prometheus series for /metrics),
// following the one-component-one-concern layout of production GPU
// fleet daemons.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/obs"
	"scord/internal/obs/tracing"
	"scord/internal/replay"
	"scord/internal/tracefile"
	"scord/internal/version"
)

// Component is one independently health-checked part of the service.
// /healthz aggregates Healthy across components; /statusz renders each
// Status under its Name.
type Component interface {
	Name() string
	Healthy() (ok bool, detail string)
	Status() any
}

// Config sizes the service. The zero value is usable: withDefaults fills
// every field.
type Config struct {
	// Shards and WorkersPerShard size the replay pool; QueueDepth bounds
	// each shard's queued jobs (beyond it, submissions get 429).
	Shards          int
	WorkersPerShard int
	QueueDepth      int

	// MaxUploadBytes caps one trace upload (413 beyond it);
	// MaxStoreBytes caps what the store retains across traces: each
	// trace's decoded ops at unsafe.Sizeof(tracefile.Op{}) bytes per op
	// and its Controls at unsafe.Sizeof(tracefile.Control{}) each, plus
	// its raw length (507 beyond what is left of it, 413 when an upload's
	// reservation exceeds all of it).
	MaxUploadBytes int64
	MaxStoreBytes  int64

	// CacheEntries bounds the replay-body LRU.
	CacheEntries int

	// SpanEntries bounds the request span-tree store behind /v1/spans.
	SpanEntries int

	// Logger receives request-level diagnostics; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.WorkersPerShard < 1 {
		c.WorkersPerShard = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxStoreBytes <= 0 {
		c.MaxStoreBytes = 256 << 20
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 256
	}
	if c.SpanEntries < 1 {
		c.SpanEntries = 512
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the scord-serve HTTP service.
type Server struct {
	cfg   Config
	log   *slog.Logger
	store *Store
	pool  *Pool
	cache *ResultCache
	spans *SpanStore

	// clock is the serve path's tracing clock: every request span's
	// timestamps are microseconds since the server was built, so span
	// trees from one process share one time axis.
	clock     tracing.Clock
	replayLat *obs.Histogram
	uploadLat *obs.Histogram

	draining atomic.Bool
}

// New builds a Server from cfg and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	epoch := time.Now()
	return &Server{
		cfg:   cfg,
		log:   cfg.Logger,
		store: NewStore(cfg.MaxStoreBytes),
		pool:  NewPool(cfg.Shards, cfg.WorkersPerShard, cfg.QueueDepth),
		cache: NewResultCache(cfg.CacheEntries),
		spans: NewSpanStore(cfg.SpanEntries),
		clock: func() uint64 { return uint64(time.Since(epoch) / time.Microsecond) },
		replayLat: obs.NewHistogram("scord_serve_replay_seconds",
			"end-to-end /v1/replay latency (exemplars carry trace IDs)", obs.DefaultLatencyBuckets),
		uploadLat: obs.NewHistogram("scord_serve_upload_seconds",
			"end-to-end /v1/traces upload latency (exemplars carry trace IDs)", obs.DefaultLatencyBuckets),
	}
}

// Components returns the health-checked parts in display order.
func (s *Server) Components() []Component {
	return []Component{s.pool, s.store, s.cache, s.spans}
}

// Pool exposes the worker pool (the load-test harness and drain logic
// read its counters).
func (s *Server) Pool() *Pool { return s.pool }

// Store exposes the trace store.
func (s *Server) Store() *Store { return s.store }

// Cache exposes the result cache.
func (s *Server) Cache() *ResultCache { return s.cache }

// Drain gracefully stops the service's compute: new uploads and replays
// are refused with 503, every accepted replay job runs to completion,
// and Drain returns only when the pool is empty. The HTTP listener stays
// up throughout so in-flight responses (and final scrapes of /metrics)
// complete; the caller closes it afterwards.
func (s *Server) Drain() {
	if s.draining.Swap(true) {
		return
	}
	s.log.Info("drain started", "queued", s.pool.Queued())
	s.pool.Drain()
	sub, rej, comp, _ := s.pool.Counters()
	s.log.Info("drain complete", "submitted", sub, "rejected", rej, "completed", comp)
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the full route table: the obs telemetry mux (/metrics
// with the pool, store and cache series; /debug/vars; /debug/pprof/*)
// plus the serve API:
//
//	POST /v1/traces   upload an SCTR trace (validated, content-addressed)
//	GET  /v1/traces   list stored trace IDs
//	POST /v1/replay   replay a stored trace under a detector set
//	GET  /v1/spans    span tree of a recent request (?trace=<trace-id>)
//	GET  /healthz     200 when every component is healthy, else 503
//	GET  /statusz     JSON status of every component plus build info
func (s *Server) Handler() http.Handler {
	mux := obs.NewMux(s.pool, s.store, s.cache, s.spans, s.replayLat, s.uploadLat)
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/replay", s.handleReplay)
	mux.HandleFunc("/v1/spans", s.handleSpans)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

// handleSpans serves the stored wall-clock span tree of a recent
// request: GET /v1/spans?trace=<32-hex trace ID>. The trace ID comes
// from a response's traceparent header, a request log line, or a
// /metrics histogram exemplar.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("trace")
	if id == "" {
		http.Error(w, "missing trace query parameter", http.StatusBadRequest)
		return
	}
	body, ok := s.spans.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no spans retained for trace %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]any{"traces": s.store.IDs()})
	case http.MethodPost:
		s.handleUpload(w, r)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	rt := s.beginTrace(w, r, "http POST /v1/traces")
	defer s.finishTrace(rt, s.uploadLat, "upload request")
	read := rt.root.StartChild("read-body")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	raw, err := io.ReadAll(body)
	read.Finish()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rt.status = http.StatusRequestEntityTooLarge
			http.Error(w, fmt.Sprintf("upload exceeds %d-byte cap", s.cfg.MaxUploadBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		rt.status = http.StatusBadRequest
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	admit := rt.root.StartChild("store-admission")
	tr, dup, err := s.store.Put(raw)
	admit.Finish()
	if err != nil {
		var tooLarge *TooLargeError
		if errors.As(err, &tooLarge) {
			rt.status = http.StatusRequestEntityTooLarge
			http.Error(w, fmt.Sprintf("upload reserves %d bytes before decoding, more than the whole store holds (-max-store-bytes %d)",
				tooLarge.Reserve, tooLarge.MaxBytes), http.StatusRequestEntityTooLarge)
			return
		}
		if errors.Is(err, ErrStoreFull) {
			rt.status = http.StatusInsufficientStorage
			http.Error(w, err.Error(), http.StatusInsufficientStorage)
			return
		}
		// tracefile.Reader rejected the bytes: corrupt or truncated.
		rt.status = http.StatusBadRequest
		http.Error(w, "invalid trace: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.traceHash = tr.ID
	s.log.Info("trace stored", "id", tr.ID, "bytes", tr.RawBytes, "ops", tr.Ops, "dup", dup,
		"trace_id", rt.tr.TraceID().String())
	writeJSON(w, http.StatusOK, map[string]any{
		"id":       tr.ID,
		"dup":      dup,
		"bytes":    tr.RawBytes,
		"ops":      tr.Ops,
		"accesses": tr.Accesses,
		"kernels":  tr.Kernels,
		"bench":    tr.Header.Benchmark,
	})
}

// replayRequest is the POST /v1/replay body.
type replayRequest struct {
	// Trace is the content hash returned by the upload.
	Trace string `json:"trace"`
	// Detector is one of replay.TargetNames() or "all" (default "all").
	Detector string `json:"detector"`
	// Mode optionally overrides the trace's recorded detector mode
	// (off|base|scord|gran8|gran16) for the scord target.
	Mode string `json:"mode"`
	// NoCache forces computation even when an identical outcome is
	// cached (the load-test harness measures replay, not cache, speed).
	NoCache bool `json:"no_cache"`
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	tenant := r.Header.Get("X-Scord-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	rt := s.beginTrace(w, r, "http POST /v1/replay")
	defer s.finishTrace(rt, s.replayLat, "replay request")
	rt.tenant = tenant
	rt.shard = s.pool.ShardIndex(tenant)
	rt.root.SetAttr("tenant", tenant)

	// Admission: decode the request, resolve the trace and detector set,
	// probe the result cache.
	admit := rt.root.StartChild("admission")
	var req replayRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		admit.Finish()
		rt.status = http.StatusBadRequest
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	rt.traceHash = req.Trace
	tr, ok := s.store.Get(req.Trace)
	if !ok {
		admit.Finish()
		rt.status = http.StatusNotFound
		http.Error(w, fmt.Sprintf("unknown trace %q", req.Trace), http.StatusNotFound)
		return
	}
	names, err := detectorList(req.Detector)
	if err != nil {
		admit.Finish()
		rt.status = http.StatusBadRequest
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := tr.Header.Config
	if req.Mode != "" {
		dm, err := config.ParseMode(req.Mode)
		if err != nil {
			admit.Finish()
			rt.status = http.StatusBadRequest
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		cfg = cfg.WithDetector(dm)
	}

	// A request renders only the body format it asked for. HashConfig
	// runs once, and only when the cache key or the JSON body needs it.
	text := r.URL.Query().Get("format") == "text"
	var hash uint64
	if !req.NoCache || !text {
		hash = tracefile.HashConfig(cfg)
	}
	var key cacheKey
	if !req.NoCache {
		key = cacheKey{
			trace:      tr.ID,
			configHash: hash,
			detectors:  strings.Join(names, ","),
			text:       text,
		}
		if body, ok := s.cache.Get(key); ok {
			admit.Finish()
			rt.cache = "hit"
			render := rt.root.StartChild("render")
			respond(w, body, text, "hit")
			render.Finish()
			return
		}
	}
	admit.Finish()
	rt.cache = "miss"

	var (
		body   []byte
		runErr error
	)
	// The worker closure runs on a pool goroutine while this handler
	// blocks in Do, so the span mutations below are ordered by the job's
	// completion, not concurrent with the handler's. The deferred
	// finishes close the spans even if the replay panics.
	submitTS := s.clock()
	err = s.pool.Do(tenant, func() {
		start := s.clock()
		rt.queueWaitUS = start - submitTS
		qw := rt.root.StartChildAt("queue-wait", submitTS)
		qw.FinishAt(start)
		worker := rt.root.StartChildAt("shard-worker", start)
		defer worker.Finish()
		worker.SetAttr("shard", fmt.Sprintf("%d", rt.shard))
		rep := worker.StartChild("replay")
		defer rep.Finish()
		body, runErr = computeBody(tr, names, cfg, hash, text)
	})
	var panicked *PanicError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		rt.status = http.StatusTooManyRequests
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		rt.status = http.StatusServiceUnavailable
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.As(err, &panicked):
		traceID := rt.tr.TraceID().String()
		s.log.Error("replay panicked", "trace_id", traceID, "trace", tr.ID,
			"panic", fmt.Sprint(panicked.Value), "stack", string(panicked.Stack))
		rt.status = http.StatusInternalServerError
		http.Error(w, "replay panicked; trace_id "+traceID, http.StatusInternalServerError)
		return
	case err != nil:
		rt.status = http.StatusInternalServerError
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if runErr != nil {
		s.log.Error("replay failed", "trace", tr.ID, "err", runErr)
		rt.status = http.StatusInternalServerError
		http.Error(w, "replay: "+runErr.Error(), http.StatusInternalServerError)
		return
	}
	if !req.NoCache {
		s.cache.Put(key, body)
	}
	render := rt.root.StartChild("render")
	respond(w, body, text, "miss")
	render.Finish()
}

// respond writes one rendered body: the canonical text rendering
// (byte-identical to scord-replay's sections) for ?format=text, the JSON
// body otherwise. X-Scord-Cache reports hit or miss.
func respond(w http.ResponseWriter, body []byte, text bool, cache string) {
	w.Header().Set("X-Scord-Cache", cache)
	if text {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Write(body)
}

// detectorList canonicalizes a request's detector field: "all" (or
// empty) expands to every target, a single name is validated against
// the registry.
func detectorList(d string) ([]string, error) {
	if d == "" || d == "all" {
		return replay.TargetNames(), nil
	}
	names := replay.TargetNames()
	if i := sort.SearchStrings(names, d); i < len(names) && names[i] == d {
		return []string{d}, nil
	}
	return nil, fmt.Errorf("unknown detector %q (choose from %v or \"all\")", d, names)
}

// detectorResult is the JSON form of one replay.Result.
type detectorResult struct {
	Detector string   `json:"detector"`
	Ops      int      `json:"ops"`
	Accesses int      `json:"accesses"`
	Kernels  int      `json:"kernels"`
	Races    []string `json:"races"`
	// Provenance carries the ScoRD detector's full evidence record for
	// each race verdict, aligned index-for-index with Races (scord
	// target only; the comparison models capture no evidence).
	Provenance []core.Evidence `json:"provenance,omitempty"`
}

// replayBody is the JSON body. Its fields are in the order their names
// sort.
type replayBody struct {
	ConfigHash uint64           `json:"config_hash"`
	Detectors  []detectorResult `json:"detectors"`
	Trace      string           `json:"trace"`
}

// computeBody replays tr under every named detector and renders the one
// body a request asked for: each result's WriteText when text is set,
// else the JSON body, whose config_hash is hash. It runs on a pool
// worker; everything it touches is either immutable (tr) or freshly
// built per call, so any number of bodies compute concurrently.
func computeBody(tr *Trace, names []string, cfg config.Config, hash uint64, text bool) ([]byte, error) {
	var (
		buf     bytes.Buffer
		results []detectorResult
	)
	for _, name := range names {
		t, err := replay.TargetByName(name, cfg)
		if err != nil {
			return nil, err
		}
		// The real detector captures verdict provenance for the JSON
		// body's evidence. Capture never changes detection results, so a
		// text body, which carries no evidence, skips it.
		sc, isScoRD := t.(*replay.ScoRD)
		if isScoRD && !text {
			sc.EnableProvenance()
		}
		res, err := replay.RunOps(tr.Header, tr.ops, t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if text {
			res.WriteText(&buf)
			continue
		}
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
	if text {
		return buf.Bytes(), nil
	}
	return json.Marshal(replayBody{ConfigHash: hash, Detectors: results, Trace: tr.ID})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	type bad struct{ name, detail string }
	var failing []bad
	for _, c := range s.Components() {
		if ok, detail := c.Healthy(); !ok {
			failing = append(failing, bad{c.Name(), detail})
		}
	}
	if s.Draining() || len(failing) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		if s.Draining() {
			fmt.Fprintln(w, "draining")
		}
		for _, f := range failing {
			fmt.Fprintf(w, "%s: %s\n", f.name, f.detail)
		}
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	type componentStatus struct {
		Healthy bool   `json:"healthy"`
		Detail  string `json:"detail"`
		Status  any    `json:"status"`
	}
	status := map[string]componentStatus{}
	for _, c := range s.Components() {
		ok, detail := c.Healthy()
		status[c.Name()] = componentStatus{Healthy: ok, Detail: detail, Status: c.Status()}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"build": map[string]string{
			"version": version.Version,
			"commit":  version.Commit,
		},
		"draining":   s.Draining(),
		"components": status,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
