package harness

import (
	"strings"
	"testing"

	"scord/internal/config"
)

// planned builds exps in order on one empty outcome map without
// simulating anything, and returns the plan: every run read as zero, so
// each one asked for is missing.
func planned(opt Options, exps ...Experiment) *plan {
	p := &plan{cfg: opt.cfg(), done: map[key]*outcome{}}
	for _, e := range exps {
		e.build(p)
	}
	return p
}

// TestEvaluatePlan pins how many runs each experiment asks for and how
// many of them are distinct, alone and across the whole evaluation.
func TestEvaluatePlan(t *testing.T) {
	all := planned(Options{}, Experiments...)
	if all.asked != 460 || len(all.missing) != 253 {
		t.Errorf("whole evaluation asks for %d runs, %d distinct; want 460 and 253", all.asked, len(all.missing))
	}

	// Each ablation's repeated no-detection runs collapse into one per app.
	want := map[string]int{
		"table6": 50, "table7": 28, "table8": 32, "fig8": 21, "fig9": 21, "fig10": 28,
		"fig11": 42, "phases": 7, "ablation-ratio": 77, "ablation-inbox": 35, "ablation-rate": 42,
	}
	for _, e := range Experiments {
		if got := len(planned(Options{}, e).missing); got != want[e.Name] {
			t.Errorf("%s alone holds %d runs, want %d", e.Name, got, want[e.Name])
		}
	}

	// Every Figure 11 run keeps the evaluation's configuration, seed
	// included, apart from the three memory fields and the detector mode.
	cfg := config.Default()
	cfg.Seed = 7
	var fig11 Experiment
	for _, e := range Experiments {
		if e.Name == "fig11" {
			fig11 = e
		}
	}
	for _, q := range planned(Options{Config: &cfg}, fig11).missing {
		c := q.key.cfg
		c.L2Size, c.L2Banks, c.MemChannels = cfg.L2Size, cfg.L2Banks, cfg.MemChannels
		c.Detector.Mode = cfg.Detector.Mode
		if c != cfg {
			t.Fatalf("%s strays from the evaluation's configuration:\n got %+v\nwant %+v", q.label, q.key.cfg, cfg)
		}
	}
}

// TestSharedRunsRenderAlike: evaluated through one outcome map, Figure 9
// and the phase profile simulate nothing Figure 8 has not, and render as
// they do alone.
func TestSharedRunsRenderAlike(t *testing.T) {
	skipHeavy(t)
	rep := &Report{}
	runs := NewRuns()
	shared := map[string]Result{}
	for _, e := range Experiments {
		if e.Name == "fig8" || e.Name == "fig9" || e.Name == "phases" {
			res, err := runs.Evaluate(Options{Report: rep}, e)
			if err != nil {
				t.Fatal(err)
			}
			shared[e.Name] = res
		}
	}
	if n := len(rep.Jobs()); n != 21 {
		t.Errorf("fig8, fig9 and phases dispatched %d simulations, want 21", n)
	}

	f9, err := RunFig9(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ph, err := RunPhaseProfile(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, alone := range map[string]Result{"fig9": f9, "phases": ph} {
		if got, want := shared[name].Render(), alone.Render(); got != want {
			t.Errorf("%s renders differently beside fig8:\n%s\nalone:\n%s", name, got, want)
		}
		if got, want := csvBytes(t, shared[name]), csvBytes(t, alone); got != want {
			t.Errorf("%s CSV differs beside fig8:\n%s\nalone:\n%s", name, got, want)
		}
	}
}

func csvBytes(t *testing.T, c CSVer) string {
	t.Helper()
	var b strings.Builder
	if err := WriteCSV(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}
