package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNoCommandShowsUsage(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "record") || !strings.Contains(errOut.String(), "replay") {
		t.Errorf("usage missing commands:\n%s", errOut.String())
	}
}

func TestUnknownCommandRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"frobnicate"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown command "frobnicate"`) {
		t.Fatalf("stderr %q missing diagnostic", errOut.String())
	}
}

func TestUnknownBenchmarkRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "nope"}, &out, &errOut); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), `unknown benchmark "nope"`) {
		t.Fatalf("stderr %q missing diagnostic", errOut.String())
	}
}

// TestRecordDumpReplayRoundTrip drives the whole CLI surface on one racey
// microbenchmark: record a trace, dump it, and replay it through every
// detector model — all through run(), the same path main() takes.
func TestRecordDumpReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.sctr")
	var out, errOut strings.Builder
	code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", path}, &out, &errOut)
	if code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "recorded fence.racey.cross-none") {
		t.Errorf("record output:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"dump", "-ops", "8", path}, &out, &errOut); code != 0 {
		t.Fatalf("dump: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	dump := out.String()
	for _, want := range []string{"benchmark  fence.racey.cross-none", "alloc", "kernel", "ops total"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump output missing %q:\n%s", want, dump)
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"replay", "-detector", "all", path}, &out, &errOut); code != 0 {
		t.Fatalf("replay: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	rep := out.String()
	for _, det := range []string{"[ScoRD]", "[LDetector]", "[HAccRG]", "[Barracuda]", "[CURD]"} {
		if !strings.Contains(rep, det) {
			t.Errorf("replay output missing %s:\n%s", det, rep)
		}
	}
	if !strings.Contains(rep, "missing-device-fence race") {
		t.Errorf("replay did not reproduce the recorded race:\n%s", rep)
	}
}

func TestReplayModeOverride(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-mode", "off", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	// A trace recorded with detection off still replays under any mode.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"replay", "-detector", "scord", "-mode", "scord", path}, &out, &errOut); code != 0 {
		t.Fatalf("replay -mode scord: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "missing-device-fence race") {
		t.Errorf("mode-overridden replay missed the race:\n%s", out.String())
	}
	// Without the override the scord target has no mode to run under.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"replay", "-detector", "scord", path}, &out, &errOut); code == 0 {
		t.Fatal("replaying an off-mode trace without -mode unexpectedly succeeded")
	}
}

func TestTable8Subcommand(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays the whole micro corpus")
	}
	var out, errOut strings.Builder
	if code := run([]string{"table8", "-jobs", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("table8: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	for _, want := range []string{"Table VIII", "ScoRD", "Barracuda"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table8 output missing %q:\n%s", want, out.String())
		}
	}
}

// TestPredictSubcommand records the racey fence micro and runs the
// predictive analysis over the trace, comparing byte-for-byte against
// the checked-in golden (the same diff the CI smoke step performs).
func TestPredictSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"predict", "-confirm", path}, &out, &errOut); code != 0 {
		t.Fatalf("predict: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "predict_fence.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if out.String() != string(golden) {
		t.Errorf("predict output differs from testdata/predict_fence.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestPredictRejectsCorruptTrace: a truncated trace fails cleanly.
func TestPredictRejectsCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.sctr")
	good := filepath.Join(t.TempDir(), "good.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", good}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"predict", path}, &out, &errOut); code == 0 {
		t.Fatal("predicting over a truncated trace unexpectedly succeeded")
	}
}

// TestRepairSubcommand drives the repair CLI end to end: record a racey
// micro at the scord detector mode, repair it (text and JSON), and check
// a race-free trace reports nothing to repair.
func TestRepairSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "racey.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "atom.racey.block-cross", "-mode", "scord", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"repair", path}, &out, &errOut); code != 0 {
		t.Fatalf("repair: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"repaired m.data/scoped-atomic",
		"promote-scope",
		"replay-clean=true",
		"perturb-clean=true",
		"fully repaired",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("repair output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"repair", "-json", path}, &out, &errOut); code != 0 {
		t.Fatalf("repair -json: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	js := out.String()
	for _, want := range []string{`"fully_repaired": true`, `"kind": "promote-scope"`, `"replay_clean": true`} {
		if !strings.Contains(js, want) {
			t.Errorf("repair -json missing %q:\n%s", want, js)
		}
	}

	clean := filepath.Join(t.TempDir(), "clean.sctr")
	out.Reset()
	errOut.Reset()
	if code := run([]string{"record", "-bench", "fence.ok.cross-device-fence", "-mode", "scord", "-o", clean}, &out, &errOut); code != 0 {
		t.Fatalf("record clean: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"repair", clean}, &out, &errOut); code != 0 {
		t.Fatalf("repair clean: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "no confirmed races") {
		t.Errorf("repair of race-free trace:\n%s", out.String())
	}

	// -min-repaired is a suite-only gate.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"repair", "-min-repaired", "1", path}, &out, &errOut); code != 2 {
		t.Fatalf("repair -min-repaired without -suite: exit code = %d, want 2", code)
	}
}

// TestExplainSubcommand records the racey fence micro and explains the
// trace's race verdicts with full provenance, comparing byte-for-byte
// against the checked-in golden (the same diff the CI smoke performs).
func TestExplainSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"explain", path}, &out, &errOut); code != 0 {
		t.Fatalf("explain: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "explain_fence.golden"))
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if out.String() != string(golden) {
		t.Errorf("explain output differs from testdata/explain_fence.golden:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestExplainSpanJSONMatchesLive: the cycle-domain span tree exported
// from a replayed trace is byte-identical to the one the live simulation
// of the same configuration emits — the tracing layer's core determinism
// contract.
func TestExplainSpanJSONMatchesLive(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	spanA := filepath.Join(dir, "a.json")
	spanB := filepath.Join(dir, "b.json")
	if code := run([]string{"explain", "-span-json", spanA, path}, &out, &errOut); code != 0 {
		t.Fatalf("explain: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	if code := run([]string{"explain", "-mode", "base", "-span-json", spanB, path}, &out, &errOut); code != 0 {
		t.Fatalf("explain -mode base: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	a, err := os.ReadFile(spanA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(spanB)
	if err != nil {
		t.Fatal(err)
	}
	// The span tree derives from the recorded op stream alone, so the
	// detector mode must not perturb it.
	if string(a) != string(b) {
		t.Error("span JSON differs across detector modes")
	}
	if !strings.Contains(string(a), `"clock_domain": "cycles"`) {
		t.Error("span JSON missing cycle clock domain")
	}
	if !strings.Contains(string(a), `"check-batch"`) {
		t.Error("span JSON missing check-batch spans")
	}
}

// TestExplainPerfettoFlows: the Perfetto export carries the race instant
// and a flow arrow linking the access spans.
func TestExplainPerfettoFlows(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.sctr")
	var out, errOut strings.Builder
	if code := run([]string{"record", "-bench", "fence.racey.cross-none", "-o", path}, &out, &errOut); code != 0 {
		t.Fatalf("record: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	pf := filepath.Join(dir, "pf.json")
	if code := run([]string{"explain", "-perfetto", pf, path}, &out, &errOut); code != 0 {
		t.Fatalf("explain -perfetto: exit code = %d, stderr:\n%s", code, errOut.String())
	}
	raw, err := os.ReadFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "race"`, `"ph": "s"`, `"ph": "f"`, `"name": "check-batch"`} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("perfetto export missing %s", want)
		}
	}
}
