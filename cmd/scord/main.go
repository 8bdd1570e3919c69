// Command scord runs one ScoR benchmark on the simulated GPU, optionally
// with race injections and a chosen detector design, and prints the
// detected races and simulation statistics.
//
// Usage:
//
//	scord -list
//	scord -bench GCOL -mode scord -inject own-atomic,steal-atomic
//	scord -bench UTS -mode base
//	scord -bench fence.racey.cross-none -perfetto trace.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/obs"
	"scord/internal/obs/tracing"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/stats"
	"scord/internal/tracefile"
	"scord/internal/version"
)

// jsonReport is the machine-readable output of -json.
type jsonReport struct {
	Benchmark  string           `json:"benchmark"`
	Detector   string           `json:"detector"`
	Injections []string         `json:"injections,omitempty"`
	Seed       int64            `json:"seed"`
	Stats      *stats.Stats     `json:"stats"`
	Kernels    []jsonKernel     `json:"kernels"`
	Races      []jsonRace       `json:"races"`
	Match      *jsonMatchResult `json:"match,omitempty"`
}

type jsonKernel struct {
	Name    string `json:"name"`
	Blocks  int    `json:"blocks"`
	Threads int    `json:"threads"`
	Cycles  uint64 `json:"cycles"`
	MemOps  uint64 `json:"memOps"`
}

type jsonRace struct {
	Kind      string `json:"kind"`
	Scope     string `json:"scope"`
	Location  string `json:"location"`
	Site      string `json:"site,omitempty"`
	PrevBlock int    `json:"prevBlock"`
	PrevWarp  int    `json:"prevWarp"`
	CurBlock  int    `json:"curBlock"`
	CurWarp   int    `json:"curWarp"`
	Count     int    `json:"count"`
}

type jsonMatchResult struct {
	Expected int      `json:"expected"`
	Caught   []string `json:"caught"`
	Missed   []string `json:"missed,omitempty"`
}

func allBenchmarks() []scor.Benchmark {
	return append(scor.Apps(), micro.Benchmarks()...)
}

func parseMode(s string) (config.DetectorMode, error) {
	return config.ParseMode(s)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "", "benchmark to run (see -list)")
		mode      = fs.String("mode", "scord", "detector: off|base|scord|gran8|gran16")
		inject    = fs.String("inject", "", "comma-separated race injections ('all' for every one)")
		list      = fs.Bool("list", false, "list benchmarks and their injections")
		seed      = fs.Int64("seed", 1, "simulation seed")
		jsonOut   = fs.Bool("json", false, "emit a machine-readable JSON report")
		scale     = fs.Int("scale", 1, "multiply the benchmark's input size (device memory scales too)")
		explain   = fs.Bool("explain", false, "print a diagnosis and fix suggestion per race")
		perfetto  = fs.String("perfetto", "", "write the span trace with race flow arrows as Chrome/Perfetto trace_event JSON to this file")
		phases    = fs.Bool("phases", false, "print the cycle-attribution breakdown by simulator phase")
		spanJSON  = fs.String("span-json", "", "write the cycle-domain span trace (scord-spans/1 JSON) to this file")
		showVer   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVer {
		fmt.Fprintln(stdout, "scord", version.String())
		return 0
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))

	if *list {
		for _, b := range allBenchmarks() {
			if inj := b.Injections(); len(inj) > 0 {
				fmt.Fprintf(stdout, "%-40s injections: %s\n", b.Name(), strings.Join(inj, ","))
			} else {
				fmt.Fprintf(stdout, "%-40s\n", b.Name())
			}
		}
		return 0
	}
	if *benchName == "" {
		fmt.Fprintln(stderr, "scord: -bench required (or -list)")
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
		fmt.Fprintf(stderr, "scord: unknown benchmark %q\n", *benchName)
		return 2
	}

	dm, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "scord:", err)
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
		fmt.Fprintln(stderr, "scord:", err)
		return 2
	}
	cfg := config.Default().WithDetector(dm)
	cfg.Seed = *seed
	cfg.DeviceMemBytes *= *scale
	dev, err := gpu.New(cfg)
	if err != nil {
		logger.Error("building device", "err", err)
		return 1
	}
	var spans *tracing.Builder
	if *spanJSON != "" || *perfetto != "" {
		// The header is the one a recording of this run carries, so the
		// span tree is byte-identical to the one scord-replay rebuilds
		// from that recording.
		spans = tracing.NewBuilder(tracefile.NewHeader(bench.Name(), active, cfg))
		dev.SetOpSink(spans)
	}
	det := dev.Detector()
	if *perfetto != "" && det != nil {
		// Race instants need both access sides of each verdict; capturing
		// them never changes what the detector reports.
		det.EnableProvenance()
	}
	if err := bench.Run(dev, active); err != nil {
		logger.Error("benchmark failed", "benchmark", bench.Name(), "err", err)
		return 1
	}

	if *jsonOut {
		if err := emitJSON(stdout, dev, bench, dm, active, *seed); err != nil {
			logger.Error("encoding json report", "err", err)
			return 1
		}
	} else {
		renderText(stdout, dev, bench, dm, active, *explain)
		if *phases {
			fmt.Fprintf(stdout, "\ncycle attribution by phase:\n")
			dev.Phases().WriteTable(stdout, dev.Cycles())
		}
	}

	if spans != nil {
		tr := spans.Finish(dev.Cycles())
		// The span JSON is written from the clean op-derived tree, as a
		// replay writes it; the Perfetto export then adds the race marks.
		if *spanJSON != "" {
			if err := writeTrace(*spanJSON, tr.WriteJSON); err != nil {
				logger.Error("writing span trace", "err", err)
				return 1
			}
			logger.Info("wrote span trace", "path", *spanJSON, "trace", tr)
		}
		if *perfetto != "" {
			if det != nil {
				tracing.AttachRaces(tr, tracing.RaceMarks(det.Records(), det.EvidenceFor))
			}
			write := func(w io.Writer) error { return obs.WritePerfettoSpans(w, tr.Snapshot()) }
			if err := writeTrace(*perfetto, write); err != nil {
				logger.Error("writing perfetto trace", "err", err)
				return 1
			}
			logger.Info("wrote perfetto trace", "path", *perfetto, "trace", tr)
		}
	}
	return 0
}

// writeTrace creates path and runs write into it, removing the file on
// failure so a partial export never survives.
func writeTrace(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

func renderText(w io.Writer, dev *gpu.Device, bench scor.Benchmark, dm config.DetectorMode, active []string, explain bool) {
	st := dev.Stats()
	fmt.Fprintf(w, "benchmark  %s\n", bench.Name())
	fmt.Fprintf(w, "detector   %v\n", dm)
	fmt.Fprintf(w, "injections %v\n", active)
	fmt.Fprintf(w, "cycles     %d\n", st.Cycles)
	fmt.Fprintf(w, "mem ops    %d (atomics %d, fences %d, barriers %d)\n",
		st.MemOps, st.Atomics, st.Fences, st.Barriers)
	fmt.Fprintf(w, "L1 hit     %.1f%%\n", 100*st.L1HitRate())
	fmt.Fprintf(w, "DRAM       %d data + %d metadata accesses\n",
		st.DRAMDataAccesses, st.DRAMMetaAccesses)
	if dm != config.ModeOff {
		fmt.Fprintf(w, "checks     %d (%d trivially race-free)\n", st.DetectorChecks, st.DetectorPrelimOK)
	}

	recs := dev.Races()
	fmt.Fprintf(w, "\n%d unique race(s) detected\n", len(recs))
	for _, r := range recs {
		if explain {
			fmt.Fprintln(w, dev.ExplainRecord(r))
		} else {
			fmt.Fprintln(w, "  ", dev.DescribeRecord(r))
		}
	}
	if len(active) > 0 {
		res := scor.MatchRaces(dev, bench.ExpectedRaces(active))
		fmt.Fprintf(w, "\nexpected %d unique race(s): caught %v", res.Expected, res.Caught)
		if len(res.Missed) > 0 {
			fmt.Fprintf(w, ", MISSED %v", res.Missed)
		}
		fmt.Fprintln(w)
	}
}

func emitJSON(w io.Writer, dev *gpu.Device, bench scor.Benchmark, dm config.DetectorMode, active []string, seed int64) error {
	rep := jsonReport{
		Benchmark:  bench.Name(),
		Detector:   dm.String(),
		Injections: active,
		Seed:       seed,
		Stats:      dev.Stats(),
	}
	for _, k := range dev.KernelLog() {
		rep.Kernels = append(rep.Kernels, jsonKernel{
			Name: k.Name, Blocks: k.Blocks, Threads: k.Threads,
			Cycles: k.Cycles, MemOps: k.Stats.MemOps,
		})
	}
	for _, r := range dev.Races() {
		scope := "device"
		if r.SameBlock {
			scope = "block"
		}
		rep.Races = append(rep.Races, jsonRace{
			Kind:      r.Kind.String(),
			Scope:     scope,
			Location:  dev.Mem().Describe(mem.Addr(r.Addr)),
			Site:      r.Site,
			PrevBlock: r.PrevBlock,
			PrevWarp:  r.PrevWarp,
			CurBlock:  r.CurBlock,
			CurWarp:   r.CurWarp,
			Count:     r.Count,
		})
	}
	if len(active) > 0 {
		res := scor.MatchRaces(dev, bench.ExpectedRaces(active))
		rep.Match = &jsonMatchResult{Expected: res.Expected, Caught: res.Caught, Missed: res.Missed}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
