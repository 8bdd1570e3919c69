package harness

import (
	"bytes"
	"reflect"
	"testing"
)

// exploreRowsForSubset explores a fixed micro subset plus the masked
// example on the worker pool at the given Jobs value.
func exploreRowsForSubset(t *testing.T, names []string, jobs int) []ExploreRow {
	t.Helper()
	rows, err := exploreRows(Options{Jobs: jobs}, append(configsNamed(t, names...), maskedConfig()), 64)
	if err != nil {
		t.Fatalf("exploreRows: %v", err)
	}
	return rows
}

// TestExploreSuiteDeterminism pins the worker-pool contract for the
// explore suite: rows and the rendered table are byte-identical at any
// Jobs value, and the per-row gates hold on the subset.
func TestExploreSuiteDeterminism(t *testing.T) {
	names := []string{
		"fence.racey.cross-none",
		"lock.racey.none-cross",
		"atom.racey.block-cross",
		"fence.ok.cross-device-fence",
		"lock.ok.device-cross",
	}
	seq := exploreRowsForSubset(t, names, 1)
	par := exploreRowsForSubset(t, names, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("explore rows differ across Jobs:\njobs=1: %+v\njobs=8: %+v", seq, par)
	}
	var b1, b8 bytes.Buffer
	(&ExploreTable{Rows: seq}).WriteText(&b1)
	(&ExploreTable{Rows: par}).WriteText(&b8)
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("rendered tables differ:\n-- jobs=1 --\n%s-- jobs=8 --\n%s", b1.String(), b8.String())
	}

	tbl := &ExploreTable{Rows: seq}
	if errs := tbl.GateErrors(); len(errs) != 0 {
		t.Fatalf("gate violations on the subset: %v", errs)
	}
	for i, name := range names {
		r := seq[i]
		if r.Bench != name {
			t.Errorf("row %d bench = %q, want %q (index order lost)", i, r.Bench, name)
		}
		if r.ExpectRacey && len(r.Races) == 0 {
			t.Errorf("%s is racey but the explorer found nothing", name)
		}
		if !r.ExpectRacey && len(r.Races) != 0 {
			t.Errorf("%s is race-free but the explorer reports %v", name, r.Races)
		}
	}
	masked := seq[len(names)]
	if masked.Dynamic != 0 || masked.GreedyConfirmed != 0 {
		t.Errorf("masked row oracles nonzero (dyn=%d greedy=%d); the mask is broken",
			masked.Dynamic, masked.GreedyConfirmed)
	}
	if masked.BeyondGreedy < 1 {
		t.Errorf("masked row BeyondGreedy = %d, want >= 1: exploration found nothing past the greedy walk", masked.BeyondGreedy)
	}
	if tbl.BeyondGreedy() < 1 {
		t.Errorf("table BeyondGreedy = %d, want >= 1", tbl.BeyondGreedy())
	}
}
