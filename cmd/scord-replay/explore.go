package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"runtime"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/harness"
	"scord/internal/replay"
)

// runExplore enumerates and replays the inequivalent schedules of a
// recorded trace. Two modes:
//
//	scord-replay explore gcol.sctr       explore one recorded trace
//	scord-replay explore -suite          record + explore the whole suite
//	                                     (app injections + micros + the
//	                                     masked-race example)
//
// Single-trace mode seeds the DFS with the trace-level predictive
// analysis's predictions (disable with -seeds=false), so the verdict
// covers at least everything the greedy PerturbTarget confirmation walk
// can reach. The suite run gates itself: every dynamically observed race
// and every greedy-confirmable prediction must be found, every witness
// must verify, and -min-beyond requires at least N races reachable only
// by systematic exploration.
func runExplore(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay explore", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite        = fs.Bool("suite", false, "explore the whole recorded suite instead of one trace")
		jsonOut      = fs.Bool("json", false, "emit the verdict as JSON")
		jobs         = fs.Int("jobs", runtime.GOMAXPROCS(0), "parallel replay workers (output is identical at any value)")
		maxSchedules = fs.Int("max-schedules", 0, "DFS schedule budget per trace (0: default)")
		maxDepth     = fs.Int("max-depth", 0, "stop branching after this many scheduled ops (0: unlimited)")
		maxPreempt   = fs.Int("max-preempt", 0, "preemption bound per schedule (0: unlimited)")
		seeds        = fs.Bool("seeds", true, "seed the explorer with the predictive analysis's predictions")
		minBeyond    = fs.Int("min-beyond", -1, "with -suite: fail unless at least N races are reachable only by exploration")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "scord-replay explore: -jobs must be >= 1, got %d\n", *jobs)
		return 2
	}
	if *suite {
		return runExploreSuite(fs, stdout, stderr, *jsonOut, *jobs, *maxSchedules, *minBeyond)
	}
	if *minBeyond >= 0 {
		fmt.Fprintln(stderr, "scord-replay explore: -min-beyond requires -suite")
		return 2
	}
	return runExploreTrace(fs, stdout, stderr, *jsonOut, *jobs, *maxSchedules, *maxDepth, *maxPreempt, *seeds)
}

func runExploreTrace(fs *flag.FlagSet, stdout, stderr io.Writer, jsonOut bool, jobs, maxSchedules, maxDepth, maxPreempt int, seeds bool) int {
	f, r, code := openTrace(fs, "explore", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()
	h := r.Header()
	ops, err := replay.ReadAll(r)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explore:", err)
		return 1
	}
	opt := explore.Options{
		MaxSchedules:   maxSchedules,
		MaxDepth:       maxDepth,
		MaxPreemptions: maxPreempt,
		Jobs:           jobs,
	}
	if seeds {
		pres, err := predict.Run(h, ops, predict.Options{})
		if err != nil {
			fmt.Fprintln(stderr, "scord-replay explore: predict:", err)
			return 1
		}
		opt.Seeds = pres.Predictions
	}
	v, err := explore.Explore(h, ops, opt)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explore:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			fmt.Fprintln(stderr, "scord-replay explore:", err)
			return 1
		}
		return 0
	}
	printHeader(stdout, h)
	fmt.Fprintln(stdout)
	v.WriteText(stdout)
	return 0
}

func runExploreSuite(fs *flag.FlagSet, stdout, stderr io.Writer, jsonOut bool, jobs, maxSchedules, minBeyond int) int {
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "scord-replay explore: -suite takes no trace argument")
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	cancel := cancelOnSignal(logger)
	table, err := harness.RunExploreSuite(harness.Options{Jobs: jobs, Cancel: cancel}, maxSchedules)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explore:", err)
		if canceled(cancel) {
			return exitInterrupted
		}
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(table); err != nil {
			fmt.Fprintln(stderr, "scord-replay explore:", err)
			return 1
		}
	} else {
		table.WriteText(stdout)
	}
	if errs := table.GateErrors(); len(errs) > 0 {
		fmt.Fprintf(stderr, "scord-replay explore: %d gate violations\n", len(errs))
		for _, e := range errs {
			fmt.Fprintln(stderr, "  "+e)
		}
		return 1
	}
	if minBeyond >= 0 {
		if beyond := table.BeyondGreedy(); beyond < minBeyond {
			fmt.Fprintf(stderr, "scord-replay explore: %d races beyond the greedy walk, below the pinned baseline %d\n",
				beyond, minBeyond)
			return 1
		}
		fmt.Fprintf(stderr, "explore gate ok: %d races beyond the greedy walk (baseline %d), zero violations\n",
			table.BeyondGreedy(), minBeyond)
	}
	return 0
}
