// Command scord-eval regenerates the ScoRD paper's evaluation: Tables VI,
// VII and VIII, the data series behind Figures 8, 9, 10 and 11, and the
// design-choice ablations of DESIGN.md.
//
// The experiments request 460 device simulations, 253 of them distinct;
// each distinct one runs once, labelled by the first experiment that
// needs it, and later experiments reuse its outcome (the "sims" of each
// "experiment complete" line counts only the new ones). The simulations
// are independent, so they run on a bounded worker pool (-jobs, default
// GOMAXPROCS). Each experiment reads its outcomes in the order it asked
// for them: rendered tables and CSVs are byte-identical at any -jobs
// value. Deterministic experiment output goes to stdout; logging and
// telemetry go to stderr (structured, gated by -v/-quiet) so stdout stays
// byte-identical across runs.
//
// Observability: -metrics samples every device's counters in the
// simulated-cycle domain and writes deterministic CSV/JSON series;
// -obs-addr serves live Prometheus /metrics, expvar and pprof while the
// run is in flight; -cpuprofile/-memprofile capture offline profiles.
//
// Usage:
//
//	scord-eval                      # run everything
//	scord-eval -only fig8           # one experiment
//	scord-eval -seed 7              # different workload seed
//	scord-eval -csv out/            # also write one CSV per experiment
//	scord-eval -jobs 1              # sequential run (same output)
//	scord-eval -metrics out/ -sample-every 5000
//	scord-eval -obs-addr 127.0.0.1:9151
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/obs"
	"scord/internal/version"
)

// exitInterrupted is the exit code after a SIGINT/SIGTERM drain (128 +
// SIGINT, the conventional interrupted status).
const exitInterrupted = 130

// testInterrupt, when non-nil, substitutes for OS signal delivery so
// tests can exercise the drain path deterministically.
var testInterrupt <-chan struct{}

// cancelOnSignal returns a channel that closes on the first SIGINT or
// SIGTERM: the harness stops dispatching simulations, drains in-flight
// workers, and the run exits non-zero without writing partial artifacts.
// A second signal exits immediately.
func cancelOnSignal(logger *slog.Logger) <-chan struct{} {
	if testInterrupt != nil {
		return testInterrupt
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		logger.Warn("interrupted; draining in-flight simulations (second signal exits immediately)", "signal", sig)
		close(done)
		<-sigs
		os.Exit(exitInterrupted)
	}()
	return done
}

func experimentNames() string {
	names := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		names[i] = e.Name
	}
	return strings.Join(names, "|")
}

// obsServerStarted, when non-nil, receives the telemetry server's bound
// address right before experiments start, and obsServerClosing, when
// non-nil, runs after the last experiment, right before the server
// closes. Tests use them to scrape the endpoint while a run is in flight
// and to keep it open until the scrape ends.
var (
	obsServerStarted func(addr string)
	obsServerClosing func()
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-eval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only   = fs.String("only", "", "run one experiment: "+experimentNames())
		seed   = fs.Int64("seed", 1, "simulation seed")
		csvDir = fs.String("csv", "", "directory to write one CSV per experiment (created if missing)")
		jobs   = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines for independent simulations (output is identical at any value)")

		metricsDir  = fs.String("metrics", "", "directory to write cycle-domain sampled metrics (metrics.csv + metrics.json; created if missing)")
		sampleEvery = fs.Uint64("sample-every", harness.DefaultSampleEvery, "metric sampling interval in simulated cycles (with -metrics)")
		obsAddr     = fs.String("obs-addr", "", "serve live telemetry on this address while running: Prometheus /metrics, expvar /debug/vars, /debug/pprof")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
		verbose     = fs.Bool("v", false, "also log per-job scheduling detail")
		quiet       = fs.Bool("quiet", false, "suppress run telemetry; warnings and errors only")
		showVer     = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, "scord-eval", version.String())
		return 0
	}
	if *verbose && *quiet {
		fmt.Fprintln(stderr, "scord-eval: -v and -quiet are mutually exclusive")
		return 2
	}

	// Structured logging to stderr. Experiment results stay on stdout;
	// everything on this logger is telemetry and may be silenced without
	// changing results.
	level := slog.LevelInfo
	switch {
	case *verbose:
		level = slog.LevelDebug
	case *quiet:
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: level}))

	// Reject an unknown -only value before running anything: a typo must
	// not cost a full evaluation pass first.
	if *only != "" {
		known := false
		for _, e := range harness.Experiments {
			if strings.EqualFold(*only, e.Name) {
				known = true
				break
			}
		}
		if !known {
			fmt.Fprintf(stderr, "scord-eval: unknown experiment %q (choose from %s)\n", *only, experimentNames())
			return 2
		}
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "scord-eval: -jobs must be >= 1, got %d\n", *jobs)
		return 2
	}

	cfg := config.Default()
	cfg.Seed = *seed

	for _, dir := range []string{*csvDir, *metricsDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				logger.Error("creating output directory", "err", err)
				return 1
			}
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error("creating cpu profile", "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("starting cpu profile", "err", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			logger.Info("wrote cpu profile", "path", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			if err := writeHeapProfile(*memProfile); err != nil {
				logger.Error("writing heap profile", "err", err)
				return
			}
			logger.Info("wrote heap profile", "path", *memProfile)
		}()
	}

	// Live telemetry: the hub collects job lifecycle and per-job simulated
	// cycle progress; the server exposes it. Both attach only when asked —
	// a run without -obs-addr keeps every device observer detached.
	var tel *obs.RunTelemetry
	if *obsAddr != "" {
		tel = obs.NewRunTelemetry()
		srv, err := obs.StartServer(*obsAddr, tel)
		if err != nil {
			logger.Error("starting telemetry server", "err", err)
			return 1
		}
		defer func() {
			if obsServerClosing != nil {
				obsServerClosing()
			}
			srv.Close()
		}()
		logger.Info("telemetry server listening", "addr", srv.Addr(),
			"endpoints", "/metrics /debug/vars /debug/pprof")
		if obsServerStarted != nil {
			obsServerStarted(srv.Addr())
		}
	}
	var col *obs.Collector
	if *metricsDir != "" {
		col = obs.NewCollector()
	}

	cancel := cancelOnSignal(logger)
	// One outcome map across the experiments: a run one experiment
	// already simulated is not simulated again for the next.
	runs := harness.NewRuns()
	for _, e := range harness.Experiments {
		if *only != "" && !strings.EqualFold(*only, e.Name) {
			continue
		}
		rep := &harness.Report{}
		opt := harness.Options{
			Config: &cfg, Jobs: *jobs, Report: rep,
			Telemetry: tel, Samples: col, SampleEvery: *sampleEvery,
			Cancel: cancel,
		}
		start := time.Now()
		res, err := runs.Evaluate(opt, e)
		if err != nil {
			if errors.Is(err, harness.ErrCanceled) {
				// Workers drained; the experiment's table was never
				// rendered and its CSV never written, and the sampled
				// metrics are incomplete — write nothing partial.
				logger.Warn("interrupted; experiment discarded, no partial artifacts written",
					"experiment", e.Name, "err", err)
				return exitInterrupted
			}
			logger.Error("experiment failed", "experiment", e.Name, "err", err)
			return 1
		}
		fmt.Fprintln(stdout, res.Render())
		// Scheduling telemetry: wall-clock only, never on stdout, so
		// experiment output stays byte-identical across -jobs values.
		logger.Info("experiment complete",
			"experiment", e.Name,
			"sims", len(rep.Jobs()),
			"workers", rep.Workers(),
			"wall", time.Since(start).Round(time.Millisecond),
			"speedup", fmt.Sprintf("%.2fx", rep.Speedup()),
			"utilization", fmt.Sprintf("%.0f%%", 100*rep.Utilization()),
		)
		for _, jt := range rep.Jobs() {
			logger.Debug("job finished", "label", jt.Label, "wall", jt.Wall)
		}

		if *csvDir != "" {
			path := filepath.Join(*csvDir, e.Name+".csv")
			if err := harness.WriteCSVFile(path, res); err != nil {
				logger.Error("writing csv", "path", path, "err", err)
				return 1
			}
		}
	}

	if col != nil {
		for _, out := range []struct {
			name  string
			write func(io.Writer) error
		}{
			{"metrics.csv", col.WriteCSV},
			{"metrics.json", col.WriteJSON},
		} {
			path := filepath.Join(*metricsDir, out.name)
			if err := writeFileWith(path, out.write); err != nil {
				logger.Error("writing metrics", "path", path, "err", err)
				return 1
			}
			logger.Info("wrote sampled metrics", "path", path, "series", len(col.Labels()))
		}
	}
	return 0
}

// writeFileWith writes via w into path, removing the file on error so a
// failed run never leaves a truncated artifact behind.
func writeFileWith(path string, w func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := w(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
