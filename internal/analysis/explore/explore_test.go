package explore_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// recordMicroOps records one micro live under ModeFull4B and decodes it.
func recordMicroOps(t *testing.T, name string) (tracefile.Header, []tracefile.Op) {
	t.Helper()
	var m *micro.Micro
	for _, cand := range micro.All() {
		if cand.Name() == name {
			m = cand
		}
	}
	if m == nil {
		t.Fatalf("no micro %q", name)
	}
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	h := tracefile.NewHeader(m.Name(), nil, cfg)
	tw, err := tracefile.NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOpSink(tw)
	if err := m.Run(d, nil); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := replay.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return r.Header(), ops
}

// TestMaskedRaceExplored: the overlapping-locks example has exactly six
// inequivalent schedules (the orderings of the three contested stores);
// the recorded one is race-free and four of the others expose the
// missing-lock store, so the explorer must return exactly that tuple,
// not observed, with a verified witness, and exhaust the space. The
// witness is the one the predictor derives on the finding's own
// schedule, not on the recorded order.
func TestMaskedRaceExplored(t *testing.T) {
	h, ops := explore.MaskedRaceExample()
	perms := map[int][]int32{}
	v, err := explore.Explore(h, ops, explore.Options{Jobs: 4, OnSchedule: func(idx int, perm []int32) error {
		perms[idx] = slices.Clone(perm)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Explored != 6 {
		t.Errorf("explored %d schedules, want 6 (orderings of the contested stores)", v.Explored)
	}
	if !v.Exhaustive || v.BoundedOut != 0 {
		t.Errorf("exploration not exhaustive: exhaustive=%v bounded=%d", v.Exhaustive, v.BoundedOut)
	}
	if len(v.Races) != 1 {
		t.Fatalf("got %d race tuples, want exactly 1: %+v", len(v.Races), v.Races)
	}
	f := v.Races[0]
	if f.Alloc != "m.data" || f.Kind != core.RaceMissingLockStore {
		t.Errorf("got tuple %s/%s, want m.data/%s", f.Alloc, f.Kind, core.RaceMissingLockStore)
	}
	if f.Observed {
		t.Error("race marked observed, but the recorded schedule is race-free")
	}
	if f.Schedule == 0 {
		t.Error("race attributed to schedule 0, which replays the recorded class")
	}
	if !f.WitnessOK {
		t.Errorf("witness failed verification: %s", f.WitnessErr)
	}
	pres, err := predict.Run(h, replay.Schedule(ops, perms[f.Schedule]), predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want *predict.Witness
	for _, p := range pres.Predictions {
		if p.Alloc == f.Alloc && p.Record.Kind == f.Kind {
			want = &p.Witness
			break
		}
	}
	if want == nil || !reflect.DeepEqual(f.Witness, *want) {
		t.Errorf("finding's witness %+v is not the prediction on schedule %d, %+v", f.Witness, f.Schedule, want)
	}
}

// TestExploreSchedule0IsRecordedClass: schedule 0 must reproduce the
// recorded schedule's detector verdict, so a race the detector already
// observed comes back Observed.
func TestExploreSchedule0IsRecordedClass(t *testing.T) {
	h, ops := recordMicroOps(t, "fence.racey.cross-none")

	sc, err := replay.NewScoRD(h.Config)
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.RunOps(h, ops, sc)
	if err != nil {
		t.Fatal(err)
	}
	observed := map[predict.Tuple]bool{}
	for _, rec := range res.Races {
		if al, ok := res.Mem.Locate(mem.Addr(rec.Addr)); ok {
			observed[predict.Tuple{Alloc: al.Name, Kind: rec.Kind}] = true
		}
	}
	if len(observed) == 0 {
		t.Fatal("micro recorded no dynamic race; test exercises nothing")
	}

	v, err := explore.Explore(h, ops, explore.Options{MaxSchedules: 64, Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for tup := range observed {
		var f *explore.Finding
		for i := range v.Races {
			if v.Races[i].Tuple() == tup {
				f = &v.Races[i]
			}
		}
		if f == nil {
			t.Errorf("dynamic race %s not found by the explorer", tup)
			continue
		}
		if !f.Observed || f.Schedule != 0 {
			t.Errorf("dynamic race %s attributed to schedule %d (observed=%v), want schedule 0",
				tup, f.Schedule, f.Observed)
		}
		if !f.WitnessOK {
			t.Errorf("witness for %s failed: %s", tup, f.WitnessErr)
		}
	}
}

// TestExploreDeterminism: the verdict must be byte-identical at any
// worker count.
func TestExploreDeterminism(t *testing.T) {
	h, ops := explore.MaskedRaceExample()
	opt := explore.Options{MaxSchedules: 32}

	opt.Jobs = 1
	v1, err := explore.Explore(h, ops, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 8
	v8, err := explore.Explore(h, ops, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v8) {
		t.Errorf("verdicts differ between -jobs 1 and -jobs 8:\n%+v\n%+v", v1, v8)
	}
	var b1, b8 bytes.Buffer
	v1.WriteText(&b1)
	v8.WriteText(&b8)
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("rendered verdicts differ:\n-- jobs=1 --\n%s-- jobs=8 --\n%s", b1.String(), b8.String())
	}
}

// TestExploreSchedulesAreLegal: every DFS schedule must be a legal
// reordering under the shared replay legality relation.
func TestExploreSchedulesAreLegal(t *testing.T) {
	h, ops := recordMicroOps(t, "lock.racey.none-cross")
	checked := 0
	_, err := explore.Explore(h, ops, explore.Options{
		MaxSchedules: 48,
		Jobs:         2,
		OnSchedule: func(idx int, perm []int32) error {
			checked++
			return replay.CheckSchedule(ops, replay.Schedule(ops, perm))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no schedules emitted")
	}
}

// TestExploreBudgets: bounds must cut the search without breaking the
// verdict's accounting, and the first schedule survives any budget.
func TestExploreBudgets(t *testing.T) {
	h, ops := explore.MaskedRaceExample()
	v, err := explore.Explore(h, ops, explore.Options{MaxSchedules: 2, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.Explored != 2 {
		t.Errorf("explored %d, want 2 under MaxSchedules=2", v.Explored)
	}
	if v.Exhaustive {
		t.Error("verdict claims exhaustive despite the schedule budget cutting branches")
	}
	if v.BoundedOut == 0 {
		t.Error("budget cut the search but BoundedOut is 0")
	}
}

// maskedPrediction runs the predictive analysis on the masked example and
// returns its (unique) masked-pair prediction.
func maskedPrediction(h tracefile.Header, ops []tracefile.Op) (predict.Prediction, error) {
	pres, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		return predict.Prediction{}, err
	}
	for _, p := range pres.Predictions {
		if p.Alloc == "m.data" && p.Record.Kind == core.RaceMissingLockStore {
			return p, nil
		}
	}
	return predict.Prediction{}, fmt.Errorf("predictor did not flag the masked pair (%d predictions)", len(pres.Predictions))
}

// TestSearcherFindsMaskedTuple: the focused search confirms the masked
// prediction, and the confirmation gate surfaces it as ConfirmedExplored
// where the greedy walk alone reports Unconfirmed.
func TestSearcherFindsMaskedTuple(t *testing.T) {
	h, ops := explore.MaskedRaceExample()
	p, err := maskedPrediction(h, ops)
	if err != nil {
		t.Fatal(err)
	}
	target := &p

	c, err := predict.Confirm(h, ops, *target, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c != predict.Unconfirmed {
		t.Fatalf("greedy walk confirmed the masked prediction (%v); the walls failed", c)
	}

	cw, err := predict.ConfirmWith(h, ops, *target, nil, predict.ConfirmOptions{Searcher: &explore.Searcher{}})
	if err != nil {
		t.Fatal(err)
	}
	if cw != predict.ConfirmedExplored {
		t.Fatalf("ConfirmWith = %v, want ConfirmedExplored", cw)
	}
}

// TestExploreSeeds: a seed prediction's greedy schedule is replayed even
// when the DFS budget is too small to reach the tuple, keeping the
// explorer a superset of the greedy confirmation walk.
func TestExploreSeeds(t *testing.T) {
	h, ops := recordMicroOps(t, "fence.racey.cross-none")
	pres, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pres.Predictions) == 0 {
		t.Fatal("no predictions on the racey micro")
	}
	v, err := explore.Explore(h, ops, explore.Options{
		MaxSchedules: 1, // only the recorded class
		Jobs:         1,
		Seeds:        pres.Predictions,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pres.Predictions {
		c, err := predict.Confirm(h, ops, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c == predict.Unconfirmed {
			continue // the greedy walk can't reach it either; superset holds vacuously
		}
		if !v.Covers(p.Alloc, p.Record.Kind) {
			t.Errorf("greedy-confirmable prediction %s/%s missing from the seeded verdict", p.Alloc, p.Record.Kind)
		}
	}
}

// TestExploreWithinStaticPredictions is the containment check between
// the explorer and the predictive analysis: every race tuple an explored
// schedule of a micro, or of the masked example, exposes must be covered
// by a prediction predict.Run made statically from the recorded trace,
// without replaying any other schedule. A finding outside that set is
// either a legality bug (the explorer replayed an interleaving the
// program cannot produce) or a predictor recall gap — both worth failing
// loudly.
func TestExploreWithinStaticPredictions(t *testing.T) {
	if raceEnabled {
		t.Skip("single-threaded exploration sweep; -race coverage comes from the determinism tests")
	}
	findings := 0
	check := func(t *testing.T, h tracefile.Header, ops []tracefile.Op) {
		pres, err := predict.Run(h, ops, predict.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v, err := explore.Explore(h, ops, explore.Options{Seeds: pres.Predictions})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range v.Races {
			findings++
			if f.Alloc == "" {
				t.Errorf("schedule %d: %s race outside any allocation", f.Schedule, f.Kind)
				continue
			}
			if !pres.Covers(f.Alloc, f.Kind) {
				t.Errorf("schedule %d exposes %s race on %s/%s, which no prediction covers",
					f.Schedule, f.Kind, h.Benchmark, f.Alloc)
			}
		}
	}
	for _, m := range micro.All() {
		t.Run(m.Name(), func(t *testing.T) {
			h, ops := recordMicroOps(t, m.Name())
			check(t, h, ops)
		})
	}
	t.Run("explore.masked", func(t *testing.T) {
		h, ops := explore.MaskedRaceExample()
		check(t, h, ops)
	})
	if findings == 0 {
		t.Fatal("no configuration produced a finding; the cross-check exercises nothing")
	}
	t.Logf("%d explorer findings, each covered by a prediction", findings)
}
