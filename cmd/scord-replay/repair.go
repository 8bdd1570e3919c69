package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"runtime"

	"scord/internal/analysis/repair"
	"scord/internal/harness"
	"scord/internal/replay"
)

// runRepair synthesizes verified fixes. Two modes:
//
//	scord-replay repair gcol.sctr         repair one recorded trace
//	scord-replay repair -suite            record + repair the whole
//	                                      injected-bug suite (26 app
//	                                      injections + 32 micros)
//
// Each fix is gated by dynamic replay (with the sibling check) and by
// predictive re-analysis with witness schedules. -min-repaired turns
// the suite run into a CI gate: fewer fully repaired injections, or any
// race-free configuration producing repair targets, exits non-zero.
func runRepair(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay repair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite       = fs.Bool("suite", false, "repair the whole injected-bug suite instead of one trace")
		jsonOut     = fs.Bool("json", false, "emit the report as JSON")
		jobs        = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker goroutines for -suite (output is identical at any value)")
		minRepaired = fs.Int("min-repaired", -1, "with -suite: fail unless at least N injections are fully repaired and no race-free configuration regresses")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "scord-replay repair: -jobs must be >= 1, got %d\n", *jobs)
		return 2
	}
	if *suite {
		return runRepairSuite(fs, stdout, stderr, *jsonOut, *jobs, *minRepaired)
	}
	if *minRepaired >= 0 {
		fmt.Fprintln(stderr, "scord-replay repair: -min-repaired requires -suite")
		return 2
	}
	return runRepairTrace(fs, stdout, stderr, *jsonOut)
}

func runRepairTrace(fs *flag.FlagSet, stdout, stderr io.Writer, jsonOut bool) int {
	f, r, code := openTrace(fs, "repair", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()
	h := r.Header()
	ops, err := replay.ReadAll(r)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay repair:", err)
		return 1
	}
	rr := &repair.Repairer{Bench: h.Benchmark, Header: h, Ops: ops}
	rep, err := rr.RepairAll()
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay repair:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "scord-replay repair:", err)
			return 1
		}
		return repairExit(rep)
	}
	printHeader(stdout, h)
	fmt.Fprintln(stdout)
	if len(rep.Outcomes) == 0 {
		fmt.Fprintln(stdout, "no confirmed races; nothing to repair")
		return 0
	}
	for _, o := range rep.Outcomes {
		if o.Repaired {
			fmt.Fprintf(stdout, "repaired %s\n  fix      %s: %s\n", o.Target, o.Fix.Kind, o.Fix.Detail)
			ev := o.Evidence
			fmt.Fprintf(stdout, "  evidence replay-clean=%v predict-killed=%v perturb-clean=%v\n", ev.ReplayClean, ev.PredictKilled, ev.PerturbClean)
			fmt.Fprintf(stdout, "  overhead %d ops touched, %d ops inserted\n", ev.OpsTouched, ev.OpsInserted)
		} else {
			fmt.Fprintf(stdout, "unrepaired %s: %s\n", o.Target, o.Reason)
			for _, rej := range o.Rejected {
				fmt.Fprintf(stdout, "  rejected %s\n", rej)
			}
		}
	}
	if rep.FullyRepaired {
		fmt.Fprintln(stdout, "\nfully repaired: final trace replays race-free")
	} else {
		fmt.Fprintf(stdout, "\nNOT fully repaired; residual races: %v\n", rep.Residual)
	}
	return repairExit(rep)
}

// repairExit maps a single-trace repair to an exit status: 0 when the
// trace ends race-free (including the nothing-to-repair case), 1 when
// confirmed races remain.
func repairExit(rep *repair.Report) int {
	if rep.FullyRepaired {
		return 0
	}
	return 1
}

func runRepairSuite(fs *flag.FlagSet, stdout, stderr io.Writer, jsonOut bool, jobs, minRepaired int) int {
	if fs.NArg() != 0 {
		fmt.Fprintln(stderr, "scord-replay repair: -suite takes no trace argument")
		return 2
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	cancel := cancelOnSignal(logger)
	table, err := harness.RunRepairSuite(harness.Options{Jobs: jobs, Cancel: cancel})
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay repair:", err)
		if canceled(cancel) {
			return exitInterrupted
		}
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(table); err != nil {
			fmt.Fprintln(stderr, "scord-replay repair:", err)
			return 1
		}
	} else {
		table.WriteText(stdout)
	}
	if minRepaired >= 0 {
		repaired, total := table.InjectedRepaired()
		if regress := table.Regressions(); regress > 0 {
			fmt.Fprintf(stderr, "scord-replay repair: %d race-free configurations produced repair targets\n", regress)
			return 1
		}
		if repaired < minRepaired {
			fmt.Fprintf(stderr, "scord-replay repair: %d/%d injections fully repaired, below the pinned baseline %d\n",
				repaired, total, minRepaired)
			return 1
		}
		fmt.Fprintf(stderr, "repair gate ok: %d/%d injections fully repaired (baseline %d), zero regressions\n",
			repaired, total, minRepaired)
	}
	return 0
}
