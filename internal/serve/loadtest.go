package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadTestOpts sizes one load-test run against a live Server.
type LoadTestOpts struct {
	// Requests is the total replay requests to send (the acceptance bar
	// is at least 100).
	Requests int
	// Concurrency is the number of client goroutines firing them.
	Concurrency int
	// Tenants spreads requests across this many X-Scord-Tenant values.
	Tenants int
	// Detector is the replay request's detector field ("all" by default).
	Detector string
	// NoCache forces every request to compute, so the run measures
	// replay throughput rather than cache hits.
	NoCache bool
	// DrainAt triggers the server's graceful drain after this many
	// responses (0 disables the mid-run drain).
	DrainAt int
}

func (o LoadTestOpts) withDefaults() LoadTestOpts {
	if o.Requests < 1 {
		o.Requests = 200
	}
	if o.Concurrency < 1 {
		o.Concurrency = 16
	}
	if o.Tenants < 1 {
		o.Tenants = 4
	}
	if o.Detector == "" {
		o.Detector = "all"
	}
	return o
}

// LoadTestReport summarizes one run. The acceptance property is
// Dropped == 0: every request the pool accepted — even with a graceful
// drain racing the run — returned a complete 200 response.
type LoadTestReport struct {
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`
	Tenants     int `json:"tenants"`

	// OK counts completed replays; Rejected the 429 backpressure
	// responses; Refused the 503s after the drain began; Failed any
	// other outcome.
	OK       int `json:"ok"`
	Rejected int `json:"rejected_429"`
	Refused  int `json:"refused_503"`
	Failed   int `json:"failed"`

	// Dropped counts accepted-then-lost requests: pool submissions that
	// did not come back as 200. Must be zero.
	Dropped int `json:"dropped"`

	Duration   time.Duration `json:"duration_ns"`
	Throughput float64       `json:"replays_per_sec"`

	// Latency percentiles over the OK responses.
	P50, P95, P99, Max time.Duration `json:"-"`

	// DrainedAt is how many responses had arrived when the drain was
	// triggered (0 when no drain ran).
	DrainedAt int `json:"drained_at"`
}

// LoadTest drives sustained concurrent replay requests at a running
// Server over real HTTP and reports latency, throughput and the
// backpressure/drain outcome split. When opt.DrainAt > 0 it triggers
// s.Drain() mid-run, so a passing report doubles as evidence that a
// graceful drain drops no accepted work.
func LoadTest(s *Server, baseURL string, traceID string, opt LoadTestOpts) (*LoadTestReport, error) {
	opt = opt.withDefaults()
	// The transport is the run's own and is closed when the run ends.
	// It may dial a connection that no request ends up using, and an
	// http.Server counts such a connection as active for five seconds,
	// which would stall the caller's graceful shutdown that long.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 2 * time.Minute}

	body, err := json.Marshal(replayRequest{Trace: traceID, Detector: opt.Detector, NoCache: opt.NoCache})
	if err != nil {
		return nil, err
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       = &LoadTestReport{Requests: opt.Requests, Concurrency: opt.Concurrency, Tenants: opt.Tenants}
		responded atomic.Int64
		drainOnce sync.Once
		drainWG   sync.WaitGroup
	)
	next := atomic.Int64{}
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < opt.Concurrency; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= opt.Requests {
					return
				}
				t0 := time.Now()
				req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/replay", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					rep.Failed++
					mu.Unlock()
					continue
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Scord-Tenant", fmt.Sprintf("tenant-%d", i%opt.Tenants))
				resp, err := client.Do(req)
				lat := time.Since(t0)

				mu.Lock()
				if err != nil {
					rep.Failed++
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case http.StatusOK:
						rep.OK++
						latencies = append(latencies, lat)
					case http.StatusTooManyRequests:
						rep.Rejected++
					case http.StatusServiceUnavailable:
						rep.Refused++
					default:
						rep.Failed++
					}
				}
				mu.Unlock()

				if n := int(responded.Add(1)); opt.DrainAt > 0 && n >= opt.DrainAt {
					drainOnce.Do(func() {
						mu.Lock()
						rep.DrainedAt = n
						mu.Unlock()
						drainWG.Add(1)
						go func() {
							defer drainWG.Done()
							s.Drain()
						}()
					})
				}
			}
		}(c)
	}
	wg.Wait()
	if opt.DrainAt > 0 {
		drainOnce.Do(func() {
			rep.DrainedAt = int(responded.Load())
			s.Drain()
		})
	}
	drainWG.Wait()
	rep.Duration = time.Since(start)

	// Accepted = submitted into the pool; each must have produced a 200.
	// (Cache hits respond without a submission, so Dropped compares
	// completions, not submissions, against the OK count.)
	_, _, completed, inflight := s.Pool().Counters()
	if inflight != 0 {
		rep.Dropped += int(inflight)
	}
	if int(completed) < rep.OK {
		// A 200 without a completed job can only be a cache hit; with
		// NoCache that means lost accounting.
		if opt.NoCache {
			rep.Dropped += rep.OK - int(completed)
		}
	}
	if rep.OK+rep.Rejected+rep.Refused+rep.Failed != rep.Requests {
		rep.Dropped += rep.Requests - (rep.OK + rep.Rejected + rep.Refused + rep.Failed)
	}

	if rep.Duration > 0 {
		rep.Throughput = float64(rep.OK) / rep.Duration.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	rep.P50, rep.P95, rep.P99 = pct(0.50), pct(0.95), pct(0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	return rep, nil
}

// WriteText renders the report for humans (and EXPERIMENTS.md).
func (r *LoadTestReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "loadtest: %d requests, %d clients, %d tenants in %s\n",
		r.Requests, r.Concurrency, r.Tenants, r.Duration.Round(time.Millisecond))
	fmt.Fprintf(w, "  ok=%d rejected_429=%d refused_503=%d failed=%d dropped=%d\n",
		r.OK, r.Rejected, r.Refused, r.Failed, r.Dropped)
	fmt.Fprintf(w, "  throughput %.1f replays/s\n", r.Throughput)
	fmt.Fprintf(w, "  latency p50=%s p95=%s p99=%s max=%s\n",
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	if r.DrainedAt > 0 {
		fmt.Fprintf(w, "  graceful drain triggered after %d responses; accepted in-flight jobs dropped: %d\n",
			r.DrainedAt, r.Dropped)
	}
}
