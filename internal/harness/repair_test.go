package harness

import (
	"reflect"
	"strings"
	"testing"

	"scord/internal/analysis/fix"
	"scord/internal/analysis/repair"
)

// repairRowsForMicros repairs a fixed micro subset on the worker pool at
// the given Jobs value.
func repairRowsForMicros(t *testing.T, names []string, jobs int) []RepairRow {
	t.Helper()
	rows, err := repairRows(Options{Jobs: jobs}, configsNamed(t, names...))
	if err != nil {
		t.Fatalf("repairRows: %v", err)
	}
	return rows
}

// TestRepairSuiteMicroDeterminism pins the worker-pool contract for the
// repair suite: the assembled rows are identical at any Jobs value.
func TestRepairSuiteMicroDeterminism(t *testing.T) {
	names := []string{
		"atom.racey.block-cross",
		"fence.racey.cross-none",
		"fence.racey.cross-block-fence",
		"lock.racey.block-lock-cross",
		"fence.ok.cross-device-fence",
		"lock.ok.device-cross",
	}
	seq := repairRowsForMicros(t, names, 1)
	par := repairRowsForMicros(t, names, 4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("repair rows differ across Jobs:\njobs=1: %+v\njobs=4: %+v", seq, par)
	}
	for i, name := range names {
		if seq[i].Bench != name {
			t.Errorf("row %d bench = %q, want %q (index order lost)", i, seq[i].Bench, name)
		}
	}
	// The racey micros must be fully repaired, the ok micros untouched.
	for _, r := range seq {
		if r.ExpectRacey && !r.FullyRepaired {
			t.Errorf("%s not fully repaired: %+v", r.Bench, r)
		}
		if !r.ExpectRacey && r.Targets != 0 {
			t.Errorf("%s is race-free but produced %d targets", r.Bench, r.Targets)
		}
	}
}

// TestRepairTableAggregates pins the gate arithmetic and the Table VIII
// class ordering on a synthetic table.
func TestRepairTableAggregates(t *testing.T) {
	mk := func(kind fix.Kind, touched, inserted int) AppliedFix {
		return AppliedFix{Target: "a/k", Fix: fix.Fix{Kind: kind},
			Evidence: repair.Evidence{OpsTouched: touched, OpsInserted: inserted}}
	}
	tbl := &RepairTable{Rows: []RepairRow{
		{Bench: "MM", Injection: "i1", ExpectRacey: true, Targets: 1, Repaired: 1,
			FullyRepaired: true, Fixes: []AppliedFix{mk(fix.InsertFence, 0, 2)}, OpsInserted: 2},
		{Bench: "MM", Injection: "i2", ExpectRacey: true, Targets: 1, FullyRepaired: false,
			Residual: []string{"x/missing-device-fence"}},
		{Bench: "m.locks", ExpectRacey: true, Class: "locks", Targets: 1, Repaired: 1,
			FullyRepaired: true, Fixes: []AppliedFix{mk(fix.DemoteAtomic, 3, 0)}, OpsTouched: 3},
		{Bench: "m.fences", ExpectRacey: true, Class: "fences", Targets: 1, Repaired: 1,
			FullyRepaired: true, Fixes: []AppliedFix{mk(fix.InsertFence, 0, 1)}, OpsInserted: 1},
		{Bench: "m.ok", ExpectRacey: false, Targets: 1}, // regression
	}}
	if r, tot := tbl.InjectedRepaired(); r != 1 || tot != 2 {
		t.Errorf("InjectedRepaired = %d/%d, want 1/2", r, tot)
	}
	if r, tot := tbl.MicroRepaired(); r != 2 || tot != 2 {
		t.Errorf("MicroRepaired = %d/%d, want 2/2", r, tot)
	}
	if n := tbl.Regressions(); n != 1 {
		t.Errorf("Regressions = %d, want 1", n)
	}
	costs := tbl.ClassCosts()
	if len(costs) != 2 || costs[0].Class != "fences" || costs[1].Class != "locks" {
		t.Fatalf("ClassCosts order = %+v, want fences before locks (Table VIII order)", costs)
	}
	if costs[1].Touched != 3 || costs[0].Inserted != 1 {
		t.Errorf("ClassCosts sums wrong: %+v", costs)
	}
	text := tbl.Render()
	for _, want := range []string{
		"injected bugs fully repaired: 1/2",
		"racey micros fully repaired:  2/2",
		"race-free regressions:        1",
		"residual x/missing-device-fence",
		"overhead[locks]: 1 fixes, 3 ops touched, 0 ops inserted",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Render missing %q:\n%s", want, text)
		}
	}
}
