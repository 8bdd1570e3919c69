package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scord/internal/config"
	"scord/internal/obs"
	"scord/internal/obs/tracing"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/serve"
	"scord/internal/tracefile"
)

// The serve workload drives an in-process scord-serve (its default
// Config) over loopback HTTP. Every request replays one micro trace
// under all five models with the result cache bypassed, so requests are
// bound by detector construction, not by per-op cost. Phase (a) is an
// open loop: Poisson arrivals at serveRate, timed from their due time.
// Phase (b) is a closed loop: nproc connections sending back to back.

const (
	// serveRate is phase (a)'s arrival rate in requests per second, about
	// a third of what the closed loop sustains on two CPUs: light load,
	// yet enough arrivals that overlapping requests, which set the tail,
	// are common rather than rare.
	serveRate = 8.0
	// serveLimit is the latency limit on the wall clock: a reply later
	// than this counts as failed and is not counted in the throughput.
	serveLimit = 5 * time.Second
	// serveMinRequests is the fewest requests either phase sends.
	serveMinRequests = 100
	// serveTenants is how many tenants requests are spread across.
	serveTenants = 4
)

// serveEnv is a running server with the micro traces uploaded.
type serveEnv struct {
	srv    *serve.Server
	http   *obs.Server
	url    string
	client *http.Client
	ids    []string // uploaded trace IDs, in micro order
	raws   [][]byte
	// shift converts the server's span clock to the span log's clock,
	// in microseconds.
	shift int64
	// uploadMS are the client-timed upload durations.
	uploadMS []float64
	// limit is the latency limit; 0 means none.
	limit time.Duration
}

func (e *serveEnv) close() {
	e.srv.Drain()
	e.http.Close()
	e.client.CloseIdleConnections()
}

// serveSetup records the micro traces (mode base, as the built-in load
// test records), starts the server on a loopback port and uploads them.
func serveSetup(p params, log *spanLog) (*serveEnv, error) {
	cfg := config.Default()
	cfg.Seed = p.seed
	tr := log.tracer("setup")
	micros := micro.Benchmarks()
	if p.smoke {
		micros = micros[:4]
	}
	// A smoke run checks plumbing, not speed: under the race detector a
	// reply can take minutes.
	e := &serveEnv{limit: serveLimit}
	if p.smoke {
		e.limit = 0
	}
	for _, b := range micros {
		r, err := record(cfg, b, nil, tr)
		if err != nil {
			return nil, err
		}
		e.raws = append(e.raws, r.raw)
	}
	if log != nil {
		e.shift = int64(time.Since(log.epoch) / time.Microsecond)
	}
	e.srv = serve.New(serve.Config{})
	hs, err := obs.StartServerMux("127.0.0.1:0", e.srv.Handler())
	if err != nil {
		e.srv.Drain()
		return nil, err
	}
	e.http = hs
	e.url = "http://" + hs.Addr()
	e.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
	}}
	for _, raw := range e.raws {
		s := span(tr, nil, "http POST /v1/traces")
		t0 := time.Now()
		resp, err := e.client.Post(e.url+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
		var up struct {
			ID string `json:"id"`
		}
		if err == nil {
			err = decodeReply(resp, &up)
		}
		e.uploadMS = append(e.uploadMS, float64(time.Since(t0).Microseconds())/1e3)
		finish(s)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("upload: %w", err)
		}
		e.ids = append(e.ids, up.ID)
	}
	return e, nil
}

// decodeReply reads a 200 JSON reply into v.
func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// references renders every uploaded trace offline exactly as
// `scord-replay replay -detector all` does; replies must match byte for
// byte.
func (e *serveEnv) references() (map[string][]byte, error) {
	out := map[string][]byte{}
	for i, raw := range e.raws {
		r, err := tracefile.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		ops, err := replay.ReadAll(r)
		if err != nil {
			return nil, err
		}
		var text bytes.Buffer
		for _, name := range replay.TargetNames() {
			t, err := replay.TargetByName(name, r.Header().Config)
			if err != nil {
				return nil, err
			}
			res, err := replay.RunOps(r.Header(), ops, t)
			if err != nil {
				return nil, err
			}
			res.WriteText(&text)
		}
		out[e.ids[i]] = text.Bytes()
	}
	return out, nil
}

// serveReq is one planned request.
type serveReq struct {
	trace  string
	tenant string
	due    time.Duration // phase (a) only: offset from the phase start
}

// plan draws n requests from rng: a uniformly chosen trace and tenant
// each, and Poisson arrival offsets at rate (none when rate is 0).
func plan(rng *rand.Rand, ids []string, n int, rate float64) []serveReq {
	reqs := make([]serveReq, n)
	var at float64
	for i := range reqs {
		if rate > 0 {
			at += rng.ExpFloat64() / rate
		}
		reqs[i] = serveReq{
			trace:  ids[rng.Intn(len(ids))],
			tenant: fmt.Sprintf("tenant-%d", rng.Intn(serveTenants)),
			due:    time.Duration(at * float64(time.Second)),
		}
	}
	return reqs
}

// reply is one request's outcome.
type reply struct {
	latency time.Duration // from the due time (phase a) or send (phase b)
	lag     time.Duration // phase (a): how late the request was sent
	ok      bool          // a correct 200 within the latency limit
}

// send posts one replay request and checks the reply against the
// offline reference. With a tracer it records the request's span,
// propagates it as the traceparent and joins the server's own spans for
// the request from GET /v1/spans.
func (e *serveEnv) send(r serveReq, ref []byte, tr *tracing.Tracer, log *spanLog, seq string) error {
	body, _ := json.Marshal(map[string]any{"trace": r.trace, "detector": "all", "no_cache": true})
	req, err := http.NewRequest(http.MethodPost, e.url+"/v1/replay?format=text", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Scord-Tenant", r.tenant)
	s := span(tr, nil, "http POST /v1/replay")
	var reqTrace tracing.TraceID
	if s != nil {
		reqTrace = tracing.DeriveTraceID("perfbench", log.run, seq)
		req.Header.Set("traceparent", tracing.Traceparent{TraceID: reqTrace, SpanID: s.ID(), Flags: tracing.FlagSampled}.String())
	}
	resp, err := e.client.Do(req)
	if err != nil {
		finish(s)
		return err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	finish(s)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replay of %s: status %d: %s", r.trace, resp.StatusCode, bytes.TrimSpace(got))
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("replay of %s: reply differs from the offline rendering", r.trace)
	}
	if s != nil {
		var ex tracing.Export
		resp, err := e.client.Get(e.url + "/v1/spans?trace=" + reqTrace.String())
		if err == nil {
			err = decodeReply(resp, &ex)
		}
		if err != nil {
			return fmt.Errorf("spans of %s: %w", seq, err)
		}
		log.join(tr.TraceID(), ex.Spans, e.shift)
	}
	return nil
}

// openLoop is phase (a): reqs are handed to nproc connections at their
// due times; each reply is timed from its due time, so a stall also
// delays the requests queued behind it. It returns the replies and the
// share of the host's busy CPU time not stolen during the phase.
func (e *serveEnv) openLoop(reqs []serveReq, refs map[string][]byte, log *spanLog, t *tally) ([]reply, float64) {
	out := make([]reply, len(reqs))
	work := make(chan int)
	var wg sync.WaitGroup
	s0, start := readCPUStat(), time.Now()
	for c := 0; c < nproc(); c++ {
		tr := log.tracer(fmt.Sprintf("open-%d", c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := reqs[i]
				sent := time.Now()
				err := e.send(r, refs[r.trace], tr, log, fmt.Sprintf("open-%d", i))
				at := start.Add(r.due)
				lat := time.Since(at)
				out[i] = reply{latency: lat, lag: sent.Sub(at)}
				out[i].ok = e.check(err, lat, t)
			}
		}()
	}
	for i, r := range reqs {
		time.Sleep(time.Until(start.Add(r.due)))
		work <- i
	}
	close(work)
	wg.Wait()
	return out, unstolenShare(s0, readCPUStat())
}

// closedLoop is phase (b): nproc connections each send their next
// request as soon as the previous reply arrives, until at least min
// requests are done and the phase has used its seconds. It returns the
// replies and the phase's host CPU time.
func (e *serveEnv) closedLoop(reqs []serveReq, refs map[string][]byte, min int, seconds float64, name string, log *spanLog, t *tally) ([]reply, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []reply
		wg   sync.WaitGroup
	)
	start, c0 := time.Now(), cpuTime()
	for c := 0; c < nproc(); c++ {
		tr := log.tracer(fmt.Sprintf("%s-%d", name, c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || (i >= min && deadline(start, seconds)) {
					return
				}
				t0 := time.Now()
				err := e.send(reqs[i], refs[reqs[i].trace], tr, log, fmt.Sprintf("%s-%d", name, i))
				r := reply{latency: time.Since(t0)}
				r.ok = e.check(err, r.latency, t)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, cpuTime() - c0
}

// check counts one reply: it fails when the request failed or the reply
// came later than the latency limit.
func (e *serveEnv) check(err error, latency time.Duration, t *tally) bool {
	if err == nil && e.limit > 0 && latency > e.limit {
		err = fmt.Errorf("reply after %v, over the %v limit", latency, e.limit)
	}
	t.op(err)
	return err == nil
}

// unstolenMS returns each reply's latency in ms scaled by share, the
// phase's unstolen share of host CPU time.
func unstolenMS(rs []reply, share float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.latency) * share
	}
	return out
}

func okCount(rs []reply) int {
	n := 0
	for _, r := range rs {
		if r.ok {
			n++
		}
	}
	return n
}

// servePhases sizes the two phases: phase (a) gets four fifths of the
// measured seconds worth of arrivals, phase (b) the rest, and both send
// at least serveMinRequests.
func servePhases(p params) (openN, closedMin int, closedSecs float64) {
	if p.smoke {
		return 10, 10, 0
	}
	openN = max(serveMinRequests, int(serveRate*p.seconds*4/5))
	return openN, serveMinRequests, p.seconds - float64(openN)/serveRate
}

func runServe(p params, t *tally) (map[string]metric, error) {
	if p.trace {
		return serveTraced(p, t)
	}
	e, setupS, err := timeSetup(func() (*serveEnv, error) { return serveSetup(p, nil) },
		func(_, later *serveEnv) { later.close() })
	if err != nil {
		return nil, err
	}
	defer e.close()
	refs, err := e.references()
	if err != nil {
		return nil, err
	}
	ex := expect{serveBodies: refs}
	if p.tamper != nil {
		p.tamper(&ex)
	}
	rng := rand.New(rand.NewSource(p.seed))
	openN, closedMin, closedSecs := servePhases(p)
	open, share := e.openLoop(plan(rng, e.ids, openN, serveRate), ex.serveBodies, nil, t)
	closed, cpu := e.closedLoop(plan(rng, e.ids, 1<<16, 0), ex.serveBodies, closedMin, closedSecs, "closed", nil, t)
	fmt.Fprintf(os.Stderr, "perfbench: serve open loop %d requests, closed loop %d requests in %.1f cpu-s\n", len(open), len(closed), cpu.Seconds())
	return endToEnd(setupS, float64(okCount(closed))/cpu.Seconds(), unstolenMS(open, share)), nil
}

// serveTraced is the serve workload's traced run: set-up once with
// upload spans, an untraced closed loop as the overhead baseline and for
// heap bytes per request, then both phases traced, each request joined
// with the server's own spans, and a final /metrics scrape.
func serveTraced(p params, t *tally) (map[string]metric, error) {
	log := newSpanLog(p)
	e, err := serveSetup(p, log)
	if err != nil {
		return nil, err
	}
	defer e.close()
	refs, err := e.references()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	openN, closedMin, _ := servePhases(p)
	closedReqs := plan(rng, e.ids, closedMin, 0)

	_, b0 := mallocs()
	base, w0 := e.closedLoop(closedReqs, refs, closedMin, 0, "base", nil, t)
	_, b1 := mallocs()
	open, _ := e.openLoop(plan(rng, e.ids, openN, serveRate), refs, log, t)
	_, w1 := e.closedLoop(closedReqs, refs, closedMin, 0, "closed", log, t)
	rejected, err := e.scrape("scord_serve_jobs_rejected_total")
	if err != nil {
		return nil, err
	}
	if err := log.write(p.outDir); err != nil {
		return nil, err
	}

	tot := totals(log.exports(""))
	medianOf := func(name string) float64 { return median(tot[name].durSamples) }
	var lag float64
	for _, r := range open {
		lag += float64(r.lag.Microseconds()) / 1e3
	}
	m := map[string]metric{
		"tracing.overhead":           {w1.Seconds() / w0.Seconds(), "ratio"},
		"serve.admission_ms":         {medianOf("admission"), "ms"},
		"serve.queue_wait_ms":        {medianOf("queue-wait"), "ms"},
		"serve.replay_ms":            {medianOf("replay"), "ms"},
		"serve.render_ms":            {medianOf("render"), "ms"},
		"serve.http_ms":              {httpOverheadMS(log.exports("")), "ms"},
		"serve.gen_lag_ms":           {lag / float64(len(open)), "ms"},
		"serve.alloc_mb_per_request": {float64(b1-b0) / 1e6 / float64(len(base)), "MB"},
		"serve.rejected":             {rejected, "count"},
		"serve.upload_ms":            {median(e.uploadMS), "ms"},
	}
	return m, nil
}

// httpOverheadMS is the median, over requests, of the client's request
// span less the server's root span joined under it: time in HTTP, the
// loopback and the client.
func httpOverheadMS(exs []tracing.Export) float64 {
	var out []float64
	for _, ex := range exs {
		byID := map[string]tracing.ExportSpan{}
		for _, s := range ex.Spans {
			byID[s.SpanID] = s
		}
		for _, s := range ex.Spans {
			c, ok := byID[s.ParentID]
			if ok && s.Name == "http POST /v1/replay" && c.Name == "http POST /v1/replay" {
				out = append(out, float64((c.End-c.Start)-(s.End-s.Start))/1e3)
			}
		}
	}
	return median(out)
}

// scrape reads one counter from the server's /metrics.
func (e *serveEnv) scrape(name string) (float64, error) {
	resp, err := e.client.Get(e.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/metrics has no %s", name)
}
