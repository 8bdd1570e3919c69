package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/scor"
)

// skipHeavy guards the full-suite compute experiments: skipped in -short
// runs, and under the race detector where the same single-threaded compute
// balloons without adding concurrency coverage (the runner's concurrency
// is exercised by the cheaper tests below, which do run under -race).
func skipHeavy(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	if raceEnabled {
		t.Skip("full-suite experiment too slow under -race; runner tests carry race coverage")
	}
}

// TestRunnerSubmissionOrder: results land in submission-order slots no
// matter how many workers execute them or how long each job takes.
func TestRunnerSubmissionOrder(t *testing.T) {
	const n = 200
	res := make([]int, n)
	var sims []Sim
	for i := 0; i < n; i++ {
		i := i
		sims = append(sims, Sim{
			Label: fmt.Sprintf("job%d", i),
			Run: func() error {
				if i%7 == 0 {
					time.Sleep(time.Millisecond) // stagger completion order
				}
				res[i] = i * i
				return nil
			},
		})
	}
	rep := &Report{}
	if err := runAll(Options{Jobs: 8, Report: rep}, sims); err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
	jobs := rep.Jobs()
	if len(jobs) != n {
		t.Fatalf("report has %d job timings, want %d", len(jobs), n)
	}
	for i, jt := range jobs {
		if jt.Label != fmt.Sprintf("job%d", i) {
			t.Fatalf("report timing %d labeled %q, out of submission order", i, jt.Label)
		}
	}
	if rep.Workers() != 8 {
		t.Fatalf("report workers = %d, want 8", rep.Workers())
	}
	if rep.Busy() <= 0 || rep.Wall() <= 0 {
		t.Fatalf("report busy=%v wall=%v, want both positive", rep.Busy(), rep.Wall())
	}
}

// TestRunnerFirstErrorBySubmission: the propagated error is the first in
// submission order — deterministic — not the first to occur in time, and
// it carries the job's label.
func TestRunnerFirstErrorBySubmission(t *testing.T) {
	errEarly := errors.New("early-submitted failure")
	errLate := errors.New("late-submitted failure")
	sims := []Sim{
		{Label: "ok", Run: func() error { return nil }},
		{Label: "slow-fail", Run: func() error {
			time.Sleep(20 * time.Millisecond)
			return errEarly
		}},
		{Label: "fast-fail", Run: func() error { return errLate }},
	}
	err := runAll(Options{Jobs: 3}, sims)
	if !errors.Is(err, errEarly) {
		t.Fatalf("got %v, want the first submission-order error %v", err, errEarly)
	}
	if got := err.Error(); got != "slow-fail: early-submitted failure" {
		t.Fatalf("error %q missing job label context", got)
	}
}

// TestRunnerPanicFailsAlone: a job whose kernel panics, between two
// healthy jobs, fails alone. runAll returns an error naming its label
// and carrying the re-raised *gpu.WarpPanic, and both healthy slots are
// filled.
func TestRunnerPanicFailsAlone(t *testing.T) {
	launch := func(faulty bool) error {
		d, err := gpu.New(config.Default())
		if err != nil {
			return err
		}
		x := d.Alloc("x", 64)
		return d.Launch("k", 2, 64, func(c *gpu.Ctx) {
			if faulty && c.Block == 1 && c.Warp == 1 {
				c.AtLane(99)
			}
			c.Store(x, 1)
		})
	}
	var done [2]bool
	sims := []Sim{
		{Label: "healthy-0", Run: func() error { err := launch(false); done[0] = err == nil; return err }},
		{Label: "faulty", Run: func() error { return launch(true) }},
		{Label: "healthy-1", Run: func() error { err := launch(false); done[1] = err == nil; return err }},
	}
	for _, jobs := range []int{1, 3} {
		done = [2]bool{}
		err := runAll(Options{Jobs: jobs}, sims)
		var wp *gpu.WarpPanic
		if !errors.As(err, &wp) {
			t.Fatalf("jobs=%d: got %v, want the faulty job's *gpu.WarpPanic", jobs, err)
		}
		if !strings.HasPrefix(err.Error(), "faulty: panic: ") || wp.Block != 1 || wp.Warp != 1 {
			t.Errorf("jobs=%d: error %.80q (block %d warp %d) does not name the faulty job and warp", jobs, err, wp.Block, wp.Warp)
		}
		if done != [2]bool{true, true} {
			t.Errorf("jobs=%d: healthy jobs completed %v, want both", jobs, done)
		}
	}
}

// TestRunnerJobsDefault: Jobs=0 falls back to GOMAXPROCS and still runs
// everything.
func TestRunnerJobsDefault(t *testing.T) {
	ran := make([]bool, 10)
	var sims []Sim
	for i := range ran {
		i := i
		sims = append(sims, Sim{Label: "j", Run: func() error { ran[i] = true; return nil }})
	}
	if err := runAll(Options{}, sims); err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("job %d never ran", i)
		}
	}
	if err := runAll(Options{}, nil); err != nil {
		t.Fatalf("empty job list: %v", err)
	}
}

// TestGeomean: log-domain accumulation survives lists whose raw product
// overflows or underflows float64, and the empty list returns 1.
func TestGeomean(t *testing.T) {
	if g := geomean(nil); g != 1 {
		t.Fatalf("geomean(nil) = %v, want 1", g)
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	// 500 ratios of 1e3: raw product is 1e1500 (past float64 max), the
	// geomean is exactly 1e3.
	big := make([]float64, 500)
	for i := range big {
		big[i] = 1e3
	}
	if g := geomean(big); math.IsInf(g, 0) || math.Abs(g-1e3) > 1e-9 {
		t.Fatalf("geomean of overflowing product = %v, want 1000", g)
	}
	// And the mirror underflow case.
	for i := range big {
		big[i] = 1e-3
	}
	if g := geomean(big); g == 0 || math.Abs(g-1e-3) > 1e-15 {
		t.Fatalf("geomean of underflowing product = %v, want 0.001", g)
	}
}

// TestStatsDeterminism: two devices running the same benchmark at the same
// seed produce identical statistics — the property that makes results
// independent of worker interleaving.
func TestStatsDeterminism(t *testing.T) {
	run := func() ([]scor.RaceSpec, *gpu.Device) {
		b := scor.Apps()[0] // MM
		cfg := config.Default().WithDetector(config.ModeCached)
		d, err := gpu.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Run(d, nil); err != nil {
			t.Fatal(err)
		}
		return b.ExpectedRaces(nil), d
	}
	_, d1 := run()
	_, d2 := run()
	if *d1.Stats() != *d2.Stats() {
		t.Fatalf("two identical runs diverged:\n%+v\nvs\n%+v", *d1.Stats(), *d2.Stats())
	}
}

// TestParallelMatchesSequentialFig8: the ISSUE's headline determinism
// property on real simulations — jobs=8 renders byte-identical output and
// CSV to jobs=1 for Figure 8. Cheap enough to keep under -race, where it
// is the main concurrency workout of the harness.
func TestParallelMatchesSequentialFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite experiment")
	}
	seq, par := fig8At(t, 1), fig8At(t, 8)
	if seq.render != par.render {
		t.Errorf("fig8 render differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s", seq.render, par.render)
	}
	if !bytes.Equal(seq.csv, par.csv) {
		t.Errorf("fig8 CSV differs between jobs=1 and jobs=8")
	}
}

// TestParallelMatchesSequentialTable6: same property for Table VI, which
// additionally covers the microbenchmark jobs.
func TestParallelMatchesSequentialTable6(t *testing.T) {
	skipHeavy(t)
	render := func(jobs int) (string, []byte) {
		t6, err := RunTable6(Options{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, t6); err != nil {
			t.Fatal(err)
		}
		return t6.Render(), buf.Bytes()
	}
	seqR, seqC := render(1)
	parR, parC := render(8)
	if seqR != parR {
		t.Errorf("table6 render differs between jobs=1 and jobs=8:\n--- jobs=1\n%s\n--- jobs=8\n%s", seqR, parR)
	}
	if !bytes.Equal(seqC, parC) {
		t.Errorf("table6 CSV differs between jobs=1 and jobs=8")
	}
}

type fig8Out struct {
	render string
	csv    []byte
}

func fig8At(t *testing.T, jobs int) fig8Out {
	t.Helper()
	f8, err := RunFig8(Options{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, f8); err != nil {
		t.Fatal(err)
	}
	return fig8Out{render: f8.Render(), csv: buf.Bytes()}
}

// TestWriteCSVFileRemovesPartialOnError: a failing write must not leave a
// truncated CSV behind.
func TestWriteCSVFileRemovesPartialOnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	wantErr := errors.New("disk went away")
	err := writeCSVFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial,row\n") // some bytes land before the failure
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Fatalf("partial file left behind: stat err = %v", statErr)
	}
}

// TestWriteCSVFileSuccess: the happy path writes the full file and keeps it.
func TestWriteCSVFileSuccess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.csv")
	res := &Fig8{Rows: []Fig8Row{{App: "MM", BaseNorm: 1.5, ScoRDNorm: 1.2}}, GeoBase: 1.5, GeoScoRD: 1.2}
	if err := WriteCSVFile(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := "app,base_norm,scord_norm\nMM,1.500,1.200\ngeomean,1.500,1.200\n"
	if string(data) != want {
		t.Fatalf("csv = %q, want %q", data, want)
	}
}
