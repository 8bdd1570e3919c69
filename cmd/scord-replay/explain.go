package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"scord/internal/core"
	"scord/internal/mem"
	"scord/internal/obs"
	"scord/internal/obs/tracing"
	"scord/internal/replay"
	"scord/internal/tracefile"
)

// runExplain replays a recorded trace through the ScoRD detector with
// provenance capture on and prints, for every race verdict, the full
// evidence the detector decided on: both access sites, scope and
// sharing bits, fence/bloom/barrier-phase state at each side, and the
// Table III/IV row that fired. Optionally it also writes the trace's
// cycle-domain span tree (-span-json) and its Perfetto rendering with
// race marks (-perfetto), each byte-identical to the file `scord`
// writes for a live run of the same configuration.
func runExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scord-replay explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode     = fs.String("mode", "scord", "detector mode to explain under: base|scord|gran8|gran16")
		spanJSON = fs.String("span-json", "", "also write the cycle-domain span trace (scord-spans/1 JSON) to this file")
		perfetto = fs.String("perfetto", "", "also write a Perfetto span trace with race flow arrows to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	f, r, code := openTrace(fs, "explain", stderr)
	if code != 0 {
		return code
	}
	defer f.Close()

	dm, err := parseMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 2
	}
	h := r.Header()
	cfg := h.Config.WithDetector(dm)

	t, err := replay.NewScoRD(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 2
	}
	t.EnableProvenance()
	// The verdicts need one streaming pass; only the span exports need
	// the whole decoded op slice.
	var ops []tracefile.Op
	var res *replay.Result
	if *spanJSON != "" || *perfetto != "" {
		if ops, err = replay.ReadAll(r); err == nil {
			res, err = replay.RunOps(h, ops, t)
		}
	} else {
		res, err = replay.Run(r, t)
	}
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 1
	}

	printHeader(stdout, h)
	writeExplain(stdout, res, t)

	// The span-json export must stay byte-identical to a live run's, so
	// it is written from the clean op-derived tree BEFORE race marks are
	// attached; the Perfetto export then decorates the same tree with
	// race instants and flow arrows.
	if *spanJSON != "" || *perfetto != "" {
		logger := slog.New(slog.NewTextHandler(stderr, nil))
		b := tracing.FromOps(h, ops)
		if *spanJSON != "" {
			if code := writeSpanFile(*spanJSON, b.WriteJSON, stderr); code != 0 {
				return code
			}
			logger.Info("wrote span trace", "path", *spanJSON, "trace", b)
		}
		if *perfetto != "" {
			tracing.AttachRaces(b, tracing.RaceMarks(res.Races, t.EvidenceFor))
			write := func(w io.Writer) error { return obs.WritePerfettoSpans(w, b.Snapshot()) }
			if code := writeSpanFile(*perfetto, write, stderr); code != 0 {
				return code
			}
			logger.Info("wrote perfetto trace", "path", *perfetto, "trace", b)
		}
	}
	return 0
}

// writeSpanFile creates path, runs write into it, and removes the file
// on failure so a partial export never survives.
func writeSpanFile(path string, write func(io.Writer) error, stderr io.Writer) int {
	out, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 1
	}
	if err := write(out); err != nil {
		out.Close()
		os.Remove(path)
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 1
	}
	if err := out.Close(); err != nil {
		fmt.Fprintln(stderr, "scord-replay explain:", err)
		return 1
	}
	return 0
}

// writeExplain renders the verdicts: per race, the one-line description,
// the human diagnosis, and the captured evidence block.
func writeExplain(w io.Writer, res *replay.Result, t *replay.ScoRD) {
	races := res.Races
	fmt.Fprintf(w, "\n[%s] %d ops (%d accesses, %d kernels): %d unique race(s) explained\n",
		res.Detector, res.Ops, res.Accesses, res.Kernels, len(races))
	locate := func(addr uint64) string { return res.Mem.Describe(mem.Addr(addr)) }
	for i, rec := range races {
		fmt.Fprintf(w, "\nrace %d: %s\n", i+1, res.DescribeRecord(rec))
		diag := core.Explain(rec, locate)
		// Explain's first line repeats the tuple DescribeRecord just
		// printed; keep only the what/fix/note diagnosis lines.
		if _, rest, ok := strings.Cut(diag, "\n"); ok {
			diag = rest
		}
		fmt.Fprint(w, diag)
		if !strings.HasSuffix(diag, "\n") {
			fmt.Fprintln(w)
		}
		ev, ok := t.EvidenceFor(rec)
		if !ok {
			fmt.Fprintln(w, "  provenance: (not captured)")
			continue
		}
		fmt.Fprintln(w, "  provenance:")
		fmt.Fprint(w, indent(ev.Render(), "  "))
	}
	if res.Overflowed > 0 {
		fmt.Fprintf(w, "\n(%d distinct race(s) dropped after the record cap)\n", res.Overflowed)
	}
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = pad + l
		}
	}
	return strings.Join(lines, "\n") + "\n"
}
