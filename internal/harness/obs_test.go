package harness

import (
	"strings"
	"testing"

	"scord/internal/obs"
)

// TestSampledMetricsParallelMatchesSequential: the observability gate of
// this PR — with a cycle-domain sampler attached to every job, the
// serialized metrics (CSV and JSON) are byte-identical between a
// sequential run and an 8-worker run of the same experiment. Table VIII's
// microbenchmark jobs keep it cheap enough to run everywhere.
func TestSampledMetricsParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the table8 micro suite twice")
	}
	render := func(jobs int) (csv, js string) {
		col := obs.NewCollector()
		tel := obs.NewRunTelemetry()
		opt := Options{Jobs: jobs, Samples: col, SampleEvery: 500, Telemetry: tel}
		if _, err := RunTable8(opt); err != nil {
			t.Fatal(err)
		}
		total, running, done := tel.Counts()
		if total == 0 || running != 0 || done != total {
			t.Fatalf("telemetry at end of run: total=%d running=%d done=%d", total, running, done)
		}
		var c, j strings.Builder
		if err := col.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return c.String(), j.String()
	}
	seqCSV, seqJSON := render(1)
	parCSV, parJSON := render(8)
	if seqCSV != parCSV {
		t.Error("sampled metrics CSV differs between jobs=1 and jobs=8")
	}
	if seqJSON != parJSON {
		t.Error("sampled metrics JSON differs between jobs=1 and jobs=8")
	}
	// The series carry the per-component split, not just totals.
	for _, want := range []string{",instructions,", ",sm0.instructions,", ",dram0.accesses,"} {
		if !strings.Contains(seqCSV, want) {
			t.Errorf("sampled CSV missing %q series", want)
		}
	}
}

// TestTelemetryGaugesAdvance: per-job simulated-cycle gauges reach the
// device's final cycle count — live progress is wired through the
// device's probe, not inferred. The sampler is attached too, so each
// device ticks both probes from the harness's probe list.
func TestTelemetryGaugesAdvance(t *testing.T) {
	tel := obs.NewRunTelemetry()
	if _, err := RunTable8(Options{Jobs: 2, Telemetry: tel, Samples: obs.NewCollector()}); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snap()
	if len(snap.Jobs) == 0 {
		t.Fatal("no jobs in telemetry snapshot")
	}
	for _, j := range snap.Jobs {
		if j.State != "done" {
			t.Errorf("job %s state %s at end of run", j.Label, j.State)
		}
		if j.SimCycles == 0 {
			t.Errorf("job %s never advanced its cycle gauge", j.Label)
		}
	}
}
