package harness

import (
	"reflect"
	"strings"
	"testing"

	"scord/internal/analysis/predict"
	"scord/internal/core"
)

// TestPredictSuite is the predict gate over the whole suite corpus:
// every app clean and injected, every micro and extension micro is
// recorded, so the predictive analysis sees the exact schedule the
// detector judged. It demands recall 1.0, every prediction discharged
// (observed, confirmed on a PerturbTarget witness schedule, or a
// reviewed predict.Justified entry) and no stale justification.
func TestPredictSuite(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded simulations already race-tested by the suite tests")
	}
	rep, err := RunPredictSuite(Options{})
	if err != nil {
		t.Fatalf("RunPredictSuite: %v", err)
	}
	if len(rep.Observed) < 30 {
		t.Fatalf("dynamic side looks broken: only %d observed race tuples", len(rep.Observed))
	}
	if r := rep.Recall(); r != 1.0 {
		t.Errorf("predictive recall %.3f, want 1.0", r)
	}
	for _, e := range rep.GateErrors() {
		t.Error(e)
	}
	t.Logf("predict gate: %d runs, %d observed, %d predicted, %d missed (recall %.3f); discharged %d observed, %d perturbed, %d justified; %d unjustified, %d stale",
		rep.Runs, len(rep.Observed), len(rep.Predicted), len(rep.Missed), rep.Recall(),
		rep.ConfirmedObserved, rep.ConfirmedPerturbed, rep.Justified, len(rep.Unjustified), len(rep.Stale))
	for _, b := range rep.Benches {
		t.Logf("  %-36s observed %2d  predicted %2d", b.Bench, b.Observed, b.Predicted)
	}
}

// TestPredictMicros runs the predict gate's jobs on the 32 micros at two
// worker counts: the merged reports are identical, and every observed
// tuple is predicted from its own trace.
func TestPredictMicros(t *testing.T) {
	if raceEnabled {
		t.Skip("records and analyzes the whole micro corpus; suite tests carry the -race coverage")
	}
	var micros []suiteConfig
	for _, c := range suiteCorpus() {
		if c.kind == baseMicro {
			micros = append(micros, c)
		}
	}
	report := func(jobs int) *PredictReport {
		runs, err := predictRuns(Options{Jobs: jobs}, micros)
		if err != nil {
			t.Fatalf("predictRuns (jobs=%d): %v", jobs, err)
		}
		return predictReport(runs, nil)
	}
	seq, par := report(1), report(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("predict reports differ across -jobs:\njobs=1: %+v\njobs=4: %+v", seq, par)
	}
	if seq.Runs != 32 || len(seq.Observed) == 0 {
		t.Fatalf("report covers %d runs and %d observed tuples, want 32 runs and some tuples", seq.Runs, len(seq.Observed))
	}
	for _, m := range seq.Missed {
		t.Errorf("observed tuple %s missed by the predictor", m)
	}
}

// TestPredictGateErrors merges synthetic runs: a missed tuple, an
// unjustified prediction and a stale key each make their own gate error,
// and a tuple observed in one run is discharged as observed even when
// an earlier run confirmed it on a witness schedule.
func TestPredictGateErrors(t *testing.T) {
	tup := func(alloc string, kind core.RaceKind) predict.Tuple { return predict.Tuple{Alloc: alloc, Kind: kind} }
	set := func(ts ...predict.Tuple) map[predict.Tuple]bool {
		m := map[predict.Tuple]bool{}
		for _, x := range ts {
			m[x] = true
		}
		return m
	}
	missed := tup("a.missed", core.RaceMissingDeviceFence)
	both := tup("a.both", core.RaceScopedAtomic)
	unjust := tup("a.unjust", core.RaceNotStrong)
	just := tup("b.just", core.RaceMissingLockStore)
	runs := []predictRun{
		{bench: "A", observed: set(missed), predicted: set(both), perturbed: set(both)},
		{bench: "A", observed: set(both), predicted: set(both, unjust), perturbed: set()},
		{bench: "B", observed: set(), predicted: set(just), perturbed: set()},
	}
	justified := map[string]string{
		"B/b.just/" + core.RaceMissingLockStore.String(): "reviewed",
		"B/b.gone/" + core.RaceNotStrong.String():        "stale",
	}
	rep := predictReport(runs, justified)
	if rep.ConfirmedObserved != 1 || rep.ConfirmedPerturbed != 0 || rep.Justified != 1 {
		t.Errorf("discharged %d observed, %d perturbed, %d justified; want 1, 0, 1",
			rep.ConfirmedObserved, rep.ConfirmedPerturbed, rep.Justified)
	}
	if r := rep.Recall(); r != 0.5 {
		t.Errorf("recall %.3f, want 0.5", r)
	}
	errs := rep.GateErrors()
	wants := []string{
		"recall miss: observed race A/a.missed/" + core.RaceMissingDeviceFence.String(),
		"unconfirmed prediction A/a.unjust/" + core.RaceNotStrong.String(),
		`stale justification "B/b.gone/` + core.RaceNotStrong.String() + `"`,
	}
	if len(errs) != len(wants) {
		t.Fatalf("gate errors = %q, want %d", errs, len(wants))
	}
	for i, want := range wants {
		if !strings.HasPrefix(errs[i], want) {
			t.Errorf("gate error %d = %q, want prefix %q", i, errs[i], want)
		}
	}
	wantBenches := []BenchCount{{Bench: "A", Observed: 2, Predicted: 2}, {Bench: "B", Observed: 0, Predicted: 1}}
	if !reflect.DeepEqual(rep.Benches, wantBenches) {
		t.Errorf("per-bench counts = %+v, want %+v", rep.Benches, wantBenches)
	}
}
