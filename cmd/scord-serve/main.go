// Command scord-serve runs race detection as a long-running replay
// service. Clients upload an SCTR trace once (validated and
// content-addressed on admission) and replay it under any detector set
// many times over HTTP; identical requests are served from a result
// cache without replaying. The replay output is byte-identical to
// `scord-replay replay` on the same trace.
//
// Usage:
//
//	scord-serve                                  # serve on 127.0.0.1:9152
//	scord-serve -addr 127.0.0.1:0                # free port, printed on stdout
//	scord-serve -loadtest -loadtest-requests 200 # built-in load test + report
//
// API:
//
//	POST /v1/traces            upload an SCTR trace (body = raw bytes)
//	GET  /v1/traces            list stored trace IDs
//	POST /v1/replay            {"trace","detector","mode","no_cache"}
//	GET  /healthz, /statusz    health and component status
//	GET  /metrics, /debug/...  Prometheus, expvar, pprof
//
// On SIGINT/SIGTERM the server drains gracefully: intake stops (new
// requests get 503), every accepted replay job runs to completion, then
// the listener shuts down and the process exits 0. A second signal
// exits immediately.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/obs"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/serve"
	"scord/internal/version"
)

// exitInterrupted is the exit code when a drain was forced mid-work (a
// second signal, or a failed shutdown); a clean signal-triggered drain
// exits 0, as supervisors expect of a service.
const exitInterrupted = 130

// testInterrupt, when non-nil, substitutes for OS signal delivery so
// tests can exercise the drain path deterministically.
var testInterrupt <-chan struct{}

// shutdownOnSignal returns a channel that closes on the first SIGINT or
// SIGTERM; a second signal exits immediately.
func shutdownOnSignal(logger *slog.Logger) <-chan struct{} {
	if testInterrupt != nil {
		return testInterrupt
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		logger.Warn("signal received; draining (second signal exits immediately)", "signal", sig)
		close(done)
		<-sigs
		os.Exit(exitInterrupted)
	}()
	return done
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:9152", "listen address (port 0 picks a free port, printed on stdout)")
		shards    = fs.Int("shards", 4, "worker-pool shards (tenant isolation domains)")
		workers   = fs.Int("workers", 2, "replay workers per shard")
		queue     = fs.Int("queue", 64, "queued jobs per shard before 429 backpressure")
		maxUpload = fs.Int64("max-upload-bytes", 64<<20, "largest accepted trace upload")
		maxStore  = fs.Int64("max-store-bytes", 256<<20, "trace store budget: 80 bytes per decoded op, 56 per kernel, alloc or barrier payload, plus each trace's raw length")
		cacheN    = fs.Int("cache", 256, "replay bodies kept in the result cache")

		loadtest   = fs.Bool("loadtest", false, "run the built-in load test against this process and exit")
		ltRequests = fs.Int("loadtest-requests", 200, "replay requests to send")
		ltConc     = fs.Int("loadtest-concurrency", 16, "concurrent client goroutines")
		ltTenants  = fs.Int("loadtest-tenants", 4, "distinct tenants to spread requests across")
		ltDetector = fs.String("loadtest-detector", "all", "detector set each request replays")
		ltDrainAt  = fs.Int("loadtest-drain-at", -1, "trigger the graceful drain after N responses (-1: half the requests, 0: never)")
		ltTrace    = fs.String("loadtest-trace", "", "SCTR trace file to replay (default: record fence.racey.cross-none in-process)")
		showVer    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, "scord-serve", version.String())
		return 0
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))

	s := serve.New(serve.Config{
		Shards:          *shards,
		WorkersPerShard: *workers,
		QueueDepth:      *queue,
		MaxUploadBytes:  *maxUpload,
		MaxStoreBytes:   *maxStore,
		CacheEntries:    *cacheN,
		Logger:          logger,
	})
	srv, err := obs.StartServerMux(*addr, s.Handler())
	if err != nil {
		fmt.Fprintln(stderr, "scord-serve:", err)
		return 1
	}
	fmt.Fprintf(stdout, "scord-serve listening on http://%s\n", srv.Addr())
	logger.Info("serving", "addr", srv.Addr(), "shards", *shards, "workers", s.Pool().Workers(), "queue", *queue)

	if *loadtest {
		drainAt := *ltDrainAt
		if drainAt < 0 {
			drainAt = *ltRequests / 2
		}
		code := runLoadTest(s, "http://"+srv.Addr(), *ltTrace, serve.LoadTestOpts{
			Requests:    *ltRequests,
			Concurrency: *ltConc,
			Tenants:     *ltTenants,
			Detector:    *ltDetector,
			NoCache:     true,
			DrainAt:     drainAt,
		}, stdout, stderr)
		if err := srv.Close(); err != nil {
			fmt.Fprintln(stderr, "scord-serve: close:", err)
			if code == 0 {
				code = 1
			}
		}
		return code
	}

	<-shutdownOnSignal(logger)
	s.Drain()
	if err := srv.Close(); err != nil {
		fmt.Fprintln(stderr, "scord-serve: close:", err)
		return exitInterrupted
	}
	logger.Info("drained and stopped cleanly")
	return 0
}

// loadTestTrace returns the raw trace to hammer the server with: the
// given file, or a freshly recorded fence microbenchmark.
func loadTestTrace(path string, stderr io.Writer) ([]byte, error) {
	if path != "" {
		return os.ReadFile(path)
	}
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
	fmt.Fprintln(stderr, "scord-serve: recording fence.racey.cross-none for the load test")
	var buf bytes.Buffer
	err := harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(),
		"loadtest", bench, config.ModeFull4B, nil, &buf)
	return buf.Bytes(), err
}

func runLoadTest(s *serve.Server, baseURL, tracePath string, opt serve.LoadTestOpts, stdout, stderr io.Writer) int {
	raw, err := loadTestTrace(tracePath, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "scord-serve: loadtest trace:", err)
		return 1
	}
	resp, err := http.Post(baseURL+"/v1/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		fmt.Fprintln(stderr, "scord-serve: upload:", err)
		return 1
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(stderr, "scord-serve: upload status %d: %s\n", resp.StatusCode, body)
		return 1
	}
	var up struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		fmt.Fprintln(stderr, "scord-serve: upload response:", err)
		return 1
	}

	rep, err := serve.LoadTest(s, baseURL, up.ID, opt)
	if err != nil {
		fmt.Fprintln(stderr, "scord-serve: loadtest:", err)
		return 1
	}
	rep.WriteText(stdout)
	if rep.Dropped > 0 || rep.Failed > 0 {
		fmt.Fprintf(stderr, "scord-serve: loadtest FAILED: dropped=%d failed=%d\n", rep.Dropped, rep.Failed)
		return 1
	}
	return 0
}
