// Command scord-replay records and replays scoped memory-op traces. A
// trace captures the exact access stream a live simulation feeds the
// race detector; replaying it through any detector model reproduces the
// live run's races and detector counters bit-for-bit without
// re-simulating SMs, caches or DRAM — orders of magnitude faster.
//
// Usage:
//
//	scord-replay record -bench GCOL -inject own-atomic -o gcol.sctr
//	scord-replay dump gcol.sctr
//	scord-replay dump -ops 20 gcol.sctr
//	scord-replay replay gcol.sctr
//	scord-replay replay -detector all gcol.sctr
//	scord-replay predict gcol.sctr
//	scord-replay predict -confirm gcol.sctr
//	scord-replay explore gcol.sctr
//	scord-replay explore -suite -min-beyond 1
//	scord-replay table8 -dir traces/
//
// Schedule-dependent races the one recorded schedule happened not to
// expose are the explore subcommand's job: it enumerates every
// inequivalent legal reordering of the trace.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
	"scord/internal/version"
)

// exitInterrupted is the exit code after a SIGINT/SIGTERM drain (128 +
// SIGINT, the conventional interrupted status).
const exitInterrupted = 130

// testInterrupt, when non-nil, substitutes for OS signal delivery so
// tests can exercise the drain paths deterministically.
var testInterrupt <-chan struct{}

// cancelOnSignal returns a channel that closes on the first SIGINT or
// SIGTERM. The commands stop dispatching new simulation jobs, drain
// in-flight ones, remove partial output files and exit non-zero — the
// same drain protocol scord-serve follows. A second signal exits
// immediately.
func cancelOnSignal(logger *slog.Logger) <-chan struct{} {
	if testInterrupt != nil {
		return testInterrupt
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		sig := <-sigs
		logger.Warn("interrupted; draining in-flight work (second signal exits immediately)", "signal", sig)
		close(done)
		<-sigs
		os.Exit(exitInterrupted)
	}()
	return done
}

func canceled(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(w io.Writer) {
	fmt.Fprint(w, `scord-replay <command> [flags]

commands:
  record   run one benchmark live and write its memory-op trace
  dump     print a trace's header and ops in human-readable form
  replay   run detector models over a recorded trace
  explain  replay with provenance capture: per-race evidence and the Table III/IV rule that fired
  predict  soundly predict races reachable from a recorded trace
  explore  enumerate and replay all inequivalent schedules of a trace (DPOR)
  repair   synthesize and verify a minimal-cost fix for a racy trace
  table8   record the micro corpus and regenerate Table VIII from it

run 'scord-replay <command> -h' for the command's flags
`)
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "record":
		return runRecord(args[1:], stdout, stderr)
	case "dump":
		return runDump(args[1:], stdout, stderr)
	case "replay":
		return runReplay(args[1:], stdout, stderr)
	case "explain":
		return runExplain(args[1:], stdout, stderr)
	case "predict":
		return runPredict(args[1:], stdout, stderr)
	case "explore":
		return runExplore(args[1:], stdout, stderr)
	case "repair":
		return runRepair(args[1:], stdout, stderr)
	case "table8":
		return runTable8(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		usage(stdout)
		return 0
	case "-version", "--version", "version":
		fmt.Fprintln(stdout, "scord-replay", version.String())
		return 0
	}
	fmt.Fprintf(stderr, "scord-replay: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func allBenchmarks() []scor.Benchmark {
	return append(scor.Apps(), micro.Benchmarks()...)
}

func parseMode(s string) (config.DetectorMode, error) {
	return config.ParseMode(s)
}

func runRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "benchmark to record (same names as scord -list)")
		mode      = fs.String("mode", "base", "detector mode recorded in the trace config: off|base|scord|gran8|gran16")
		inject    = fs.String("inject", "", "comma-separated race injections ('all' for every one)")
		seed      = fs.Int64("seed", 1, "simulation seed")
		scale     = fs.Int("scale", 1, "multiply the benchmark's input size (device memory scales too)")
		out       = fs.String("o", "", "output trace file (default <bench>.sctr)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	if *benchName == "" {
		fmt.Fprintln(stderr, "scord-replay record: -bench required")
		return 2
	}
	var bench scor.Benchmark
	for _, b := range allBenchmarks() {
		if strings.EqualFold(b.Name(), *benchName) {
			bench = b
			break
		}
	}
	if bench == nil {
		fmt.Fprintf(stderr, "scord-replay record: unknown benchmark %q\n", *benchName)
		return 2
	}
	dm, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay record:", err)
		return 2
	}
	var active []string
	switch *inject {
	case "":
	case "all":
		active = bench.Injections()
	default:
		active = strings.Split(*inject, ",")
	}
	if err := scor.Scale(bench, *scale); err != nil {
		fmt.Fprintln(stderr, "scord-replay record:", err)
		return 2
	}
	cfg := config.Default()
	cfg.Seed = *seed
	cfg.DeviceMemBytes *= *scale

	cancel := cancelOnSignal(logger)
	path := *out
	if path == "" {
		path = bench.Name() + harness.TraceExt
	}
	f, err := os.Create(path)
	if err != nil {
		logger.Error("creating trace file", "err", err)
		return 1
	}
	opt := harness.Options{Jobs: 1, Cancel: cancel}
	if err := harness.RecordBenchmark(opt, cfg, "record/"+bench.Name(), bench, dm, active, f); err != nil {
		f.Close()
		os.Remove(path)
		logger.Error("recording failed", "benchmark", bench.Name(), "err", err)
		return 1
	}
	if err := f.Close(); err != nil {
		logger.Error("closing trace file", "err", err)
		return 1
	}
	// An interrupt during the (uninterruptible) simulation surfaces here:
	// the trace on disk may reflect a run the user gave up on, so honor
	// the drain protocol — remove the output and report the interruption.
	if canceled(cancel) {
		os.Remove(path)
		logger.Warn("interrupted; removed output trace", "path", path)
		return exitInterrupted
	}
	fi, _ := os.Stat(path)
	fmt.Fprintf(stdout, "recorded %s [%v/%v] to %s (%d bytes)\n",
		bench.Name(), dm, active, path, fi.Size())
	return 0
}

func openTrace(fs *flag.FlagSet, cmd string, stderr io.Writer) (*os.File, *tracefile.Reader, int) {
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "scord-replay %s: exactly one trace file argument required\n", cmd)
		return nil, nil, 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "scord-replay %s: %v\n", cmd, err)
		return nil, nil, 1
	}
	r, err := tracefile.NewReader(f)
	if err != nil {
		f.Close()
		fmt.Fprintf(stderr, "scord-replay %s: %v\n", cmd, err)
		return nil, nil, 1
	}
	return f, r, 0
}

func printHeader(w io.Writer, h tracefile.Header) {
	fmt.Fprintf(w, "format     v%d\n", h.Version)
	fmt.Fprintf(w, "benchmark  %s\n", h.Benchmark)
	fmt.Fprintf(w, "injections %v\n", h.Injections)
	fmt.Fprintf(w, "seed       %d\n", h.Seed)
	fmt.Fprintf(w, "detector   %v\n", h.Config.Detector.Mode)
	fmt.Fprintf(w, "confighash %016x\n", h.ConfigHash)
}

func runDump(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay dump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxOps := fs.Int("ops", 0, "print at most N ops (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, r, code := openTrace(fs, "dump", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()
	printHeader(stdout, r.Header())
	fmt.Fprintln(stdout)
	printed, total := 0, 0
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintf(stderr, "scord-replay dump: op %d: %v\n", total, err)
			return 1
		}
		total++
		if *maxOps == 0 || printed < *maxOps {
			fmt.Fprintln(stdout, op.String())
			printed++
		}
	}
	if printed < total {
		fmt.Fprintf(stdout, "... %d more ops\n", total-printed)
	}
	fmt.Fprintf(stdout, "\n%d ops total\n", total)
	return 0
}

func runReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		detector = fs.String("detector", "scord", "detector model: "+strings.Join(replay.TargetNames(), "|")+"|all")
		mode     = fs.String("mode", "", "override the trace's detector mode for the scord target: off|base|scord|gran8|gran16")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, r, code := openTrace(fs, "replay", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()

	names := []string{*detector}
	if *detector == "all" {
		names = replay.TargetNames()
	}
	cfg := r.Header().Config
	if *mode != "" {
		dm, err := parseMode(*mode)
		if err != nil {
			fmt.Fprintln(stderr, "scord-replay replay:", err)
			return 2
		}
		cfg = cfg.WithDetector(dm)
	}

	printHeader(stdout, r.Header())

	// Streaming replay suffices for a single target; a multi-target run
	// decodes the trace once up front.
	var ops []tracefile.Op
	if len(names) > 1 {
		var err error
		ops, err = replay.ReadAll(r)
		if err != nil {
			fmt.Fprintln(stderr, "scord-replay replay:", err)
			return 1
		}
	}

	cancel := cancelOnSignal(slog.New(slog.NewTextHandler(stderr, nil)))
	for _, name := range names {
		if canceled(cancel) {
			fmt.Fprintln(stderr, "scord-replay replay: interrupted")
			return exitInterrupted
		}
		t, err := replay.TargetByName(name, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "scord-replay replay:", err)
			return 2
		}
		var res *replay.Result
		if ops != nil {
			res, err = replay.RunOps(r.Header(), ops, t)
		} else {
			res, err = replay.Run(r, t)
		}
		if err != nil {
			fmt.Fprintf(stderr, "scord-replay replay: %s: %v\n", name, err)
			return 1
		}
		res.WriteText(stdout)
	}
	return 0
}

func runPredict(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		check   = fs.Bool("check", true, "re-verify every witness independently against the raw op stream")
		confirm = fs.Bool("confirm", false, "confirm each prediction against the dynamic detector: on the recorded schedule, then on a targeted legal perturbation of the witness pair")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, r, code := openTrace(fs, "predict", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()

	h := r.Header()
	ops, err := replay.ReadAll(r)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay predict:", err)
		return 1
	}
	res, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay predict:", err)
		return 1
	}
	printHeader(stdout, h)
	res.WriteText(stdout)

	if *check {
		for _, p := range res.Predictions {
			if err := predict.CheckWitness(h, ops, p.Witness); err != nil {
				fmt.Fprintf(stderr, "scord-replay predict: witness for %s/%s failed verification: %v\n",
					p.Alloc, p.Record.Kind, err)
				return 1
			}
		}
	}
	if *confirm {
		observed, err := observedTuples(h, ops)
		if err != nil {
			fmt.Fprintln(stderr, "scord-replay predict:", err)
			return 1
		}
		fmt.Fprintln(stdout)
		for _, p := range res.Predictions {
			c, err := predict.Confirm(h, ops, p, observed)
			if err != nil {
				fmt.Fprintln(stderr, "scord-replay predict:", err)
				return 1
			}
			verdict := c.String()
			if c == predict.Unconfirmed {
				key := h.Benchmark + "/" + p.Alloc + "/" + p.Record.Kind.String()
				if _, ok := predict.Justified[key]; ok {
					verdict = "justified"
				}
			}
			fmt.Fprintf(stdout, "confirm %s/%s: %s\n", p.Alloc, p.Record.Kind, verdict)
		}
	}
	return 0
}

// observedTuples replays the recorded schedule through the real detector
// and collects its (alloc, kind) race tuples.
func observedTuples(h tracefile.Header, ops []tracefile.Op) (map[predict.Tuple]bool, error) {
	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		return nil, err
	}
	res, err := replay.RunOps(h, ops, sc)
	if err != nil {
		return nil, err
	}
	return predict.TuplesOf(res.Races, res.Mem), nil
}

func runTable8(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay table8", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir  = fs.String("dir", "", "directory for the recorded micro corpus (default: a temp dir, removed afterwards)")
		jobs = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines (output is identical at any value)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "scord-replay table8: -jobs must be >= 1, got %d\n", *jobs)
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	cancel := cancelOnSignal(logger)
	t8, err := harness.RunTable8RecordReplay(harness.Options{Jobs: *jobs, Cancel: cancel}, *dir)
	if err != nil {
		if errors.Is(err, harness.ErrCanceled) {
			// The recorded corpus is incomplete; remove this run's trace
			// files so a later replay cannot mix partial state.
			if *dir != "" {
				for _, m := range micro.All() {
					os.Remove(harness.MicroTracePath(*dir, m.Name()))
				}
				logger.Warn("interrupted; removed partial trace corpus", "dir", *dir)
			}
			fmt.Fprintln(stderr, "scord-replay table8: interrupted:", err)
			return exitInterrupted
		}
		fmt.Fprintln(stderr, "scord-replay table8:", err)
		return 1
	}
	fmt.Fprintln(stdout, t8.Render())
	return 0
}
