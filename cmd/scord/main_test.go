package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/obs"
	"scord/internal/obs/tracing"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/tracefile"
)

func TestListExitsCleanly(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "fence.racey.cross-none") {
		t.Errorf("-list output missing microbenchmarks:\n%s", out.String())
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-bench", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown benchmark "nope"`) {
		t.Fatalf("stderr %q missing diagnostic", errOut.String())
	}
}

// TestPerfettoFlagWritesValidTrace: `scord -perfetto out.json` on a racey
// microbenchmark produces trace_event JSON that parses, names block
// tracks, spans the kernel, and carries at least one race instant with
// its flow arrow — the whole export path from the device's op stream
// through the span tree to the file, through the CLI.
func TestPerfettoFlagWritesValidTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut strings.Builder
	code := run([]string{"-bench", "fence.racey.cross-none", "-mode", "scord", "-perfetto", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "race(s) detected") {
		t.Errorf("stdout lost the normal report:\n%s", out.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  uint64            `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("perfetto output does not parse: %v", err)
	}
	var kernelSpans, blockTracks, races, flows int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && strings.HasPrefix(e.Name, "kernel:"):
			kernelSpans++
			if e.Dur == 0 {
				t.Errorf("kernel span %q has zero duration", e.Name)
			}
		case e.Ph == "M" && e.Name == "thread_name" && strings.HasPrefix(e.Args["name"], "block "):
			blockTracks++
		case e.Ph == "i" && e.Name == "race":
			races++
			if e.Args["addr"] == "" {
				t.Error("race instant missing addr arg")
			}
		case e.Ph == "s":
			flows++
		}
	}
	if kernelSpans == 0 {
		t.Error("no kernel spans in perfetto trace")
	}
	if blockTracks == 0 {
		t.Error("no block tracks in perfetto trace")
	}
	if races == 0 || flows == 0 {
		t.Errorf("racey micro exported %d race instants and %d flow arrows, want both", races, flows)
	}
}

// TestPerfettoMatchesReplay: a live `scord -perfetto` run and
// `scord-replay explain -perfetto` on a recording of the same run render
// the same span tree, race marks and trace identity, so the two files
// are byte-identical.
func TestPerfettoMatchesReplay(t *testing.T) {
	dm, err := config.ParseMode("base")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		bench  string
		inject bool
	}{
		{"fence.racey.cross-none", false},
		{"RED", true},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "live.json")
			args := []string{"-bench", tc.bench, "-mode", "base", "-perfetto", path}
			var active []string
			bench := findBench(t, tc.bench)
			if tc.inject {
				args = append(args, "-inject", "all")
				active = bench.Injections()
			}
			var out, errOut strings.Builder
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("exit code = %d, stderr:\n%s", code, errOut.String())
			}
			live, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			var rec bytes.Buffer
			if err := harness.RecordBenchmark(harness.Options{}, config.Default(), tc.bench, bench, dm, active, &rec); err != nil {
				t.Fatal(err)
			}
			want := explainPerfetto(t, &rec, dm)
			if !bytes.Equal(live, want) {
				t.Fatalf("live and replayed Perfetto exports differ (%d vs %d bytes)", len(live), len(want))
			}
			if !bytes.Contains(live, []byte(`"name": "race"`)) {
				t.Fatal("no race instant in the export")
			}
		})
	}
}

func findBench(t *testing.T, name string) scor.Benchmark {
	t.Helper()
	for _, b := range allBenchmarks() {
		if b.Name() == name {
			return b
		}
	}
	t.Fatalf("benchmark %q not found", name)
	return nil
}

// explainPerfetto renders a recorded trace the way `scord-replay explain
// -mode <dm> -perfetto` does.
func explainPerfetto(t *testing.T, rec io.Reader, dm config.DetectorMode) []byte {
	t.Helper()
	r, err := tracefile.NewReader(rec)
	if err != nil {
		t.Fatal(err)
	}
	h := r.Header()
	ops, err := replay.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	det, err := replay.NewScoRD(h.Config.WithDetector(dm))
	if err != nil {
		t.Fatal(err)
	}
	det.EnableProvenance()
	res, err := replay.RunOps(h, ops, det)
	if err != nil {
		t.Fatal(err)
	}
	tr := tracing.FromOps(h, ops)
	tracing.AttachRaces(tr, tracing.RaceMarks(res.Races, det.EvidenceFor))
	var buf bytes.Buffer
	if err := obs.WritePerfettoSpans(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
