package repair

import (
	"bytes"
	"encoding/json"
	"testing"

	"scord/internal/analysis/fix"
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// record executes one benchmark with the trace recorder attached and
// returns the recorded schedule.
func record(t *testing.T, b scor.Benchmark, active []string) (tracefile.Header, []tracefile.Op) {
	t.Helper()
	cfg := config.Default().WithDetector(config.ModeFull4B)
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatalf("gpu.New: %v", err)
	}
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), active, cfg))
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	d.SetOpSink(tw)
	if err := b.Run(d, active); err != nil {
		t.Fatalf("%s: %v", b.Name(), err)
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return tr.Header(), ops
}

func findMicro(t *testing.T, name string) *micro.Micro {
	t.Helper()
	for _, m := range micro.All() {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("micro %q not found", name)
	return nil
}

// repairMicro runs a full dynamic-oracle repair session on one micro and
// returns the report.
func repairMicro(t *testing.T, name string) (*Repairer, *Report) {
	t.Helper()
	m := findMicro(t, name)
	h, ops := record(t, m, nil)
	r := &Repairer{Bench: m.Name(), Header: h, Ops: ops}
	rep, err := r.RepairAll()
	if err != nil {
		t.Fatalf("RepairAll(%s): %v", name, err)
	}
	return r, rep
}

// assertRepaired checks the session ended fully repaired, every accepted
// fix carries the dynamic evidence, and the final trace replays clean.
func assertRepaired(t *testing.T, r *Repairer, rep *Report) {
	t.Helper()
	if !rep.FullyRepaired {
		t.Fatalf("%s not fully repaired; residual %v, outcomes %+v", rep.Bench, rep.Residual, rep.Outcomes)
	}
	for _, o := range rep.Outcomes {
		if !o.Repaired {
			t.Fatalf("outcome for %s not repaired: %s", o.Target, o.Reason)
		}
		if o.Fix == nil || o.Evidence == nil {
			t.Fatalf("accepted repair for %s lacks fix or evidence", o.Target)
		}
		ev := o.Evidence
		if !ev.ReplayClean || !ev.PerturbClean || !ev.SiblingsClean {
			t.Errorf("evidence for %s incomplete: %+v", o.Target, ev)
		}
		if ev.OpsTouched == 0 && ev.OpsInserted == 0 {
			t.Errorf("repair for %s claims zero-cost edit", o.Target)
		}
	}
	dyn, err := predict.Observe(r.Header, r.Ops, nil)
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	if len(dyn) != 0 {
		t.Errorf("final trace still races: %v", dyn)
	}
}

// TestRepairPromoteScope: a block-scope atomic raced against another
// block's access is repaired by the cheapest edit — scope promotion.
func TestRepairPromoteScope(t *testing.T) {
	r, rep := repairMicro(t, "atom.racey.block-cross")
	assertRepaired(t, r, rep)
	if len(rep.Outcomes) == 0 || rep.Outcomes[0].Fix.Kind != fix.PromoteScope {
		t.Fatalf("expected promote-scope fix, got %+v", rep.Outcomes)
	}
}

// TestRepairInsertFence: a cross-block publish with no fence at all gets
// a device fence inserted (strengthening has nothing to widen).
func TestRepairInsertFence(t *testing.T) {
	r, rep := repairMicro(t, "fence.racey.cross-none")
	assertRepaired(t, r, rep)
	found := false
	for _, o := range rep.Outcomes {
		if o.Fix != nil && o.Fix.Kind == fix.InsertFence {
			found = true
			if o.Evidence.OpsInserted == 0 {
				t.Errorf("insert-fence evidence counts no insertions: %+v", o.Evidence)
			}
		}
	}
	if !found {
		t.Fatalf("expected an insert-fence fix, got %+v", rep.Outcomes)
	}
}

// TestRepairStrengthenFence: a cross-block publish fenced at block scope
// is repaired by widening the existing fence, not by inserting new ops.
func TestRepairStrengthenFence(t *testing.T) {
	r, rep := repairMicro(t, "fence.racey.cross-block-fence")
	assertRepaired(t, r, rep)
	if len(rep.Outcomes) == 0 || rep.Outcomes[0].Fix.Kind != fix.StrengthenFence {
		t.Fatalf("expected strengthen-fence fix, got %+v", rep.Outcomes)
	}
	if rep.OpsInserted != 0 {
		t.Errorf("strengthen-only repair inserted %d ops", rep.OpsInserted)
	}
}

// TestRepairLockProtocol: a lock built on block-scope atomics used
// across blocks is repaired by promoting the protocol (lock word and its
// fences) to device scope.
func TestRepairLockProtocol(t *testing.T) {
	r, rep := repairMicro(t, "lock.racey.block-lock-cross")
	assertRepaired(t, r, rep)
}

// TestRepairWholeSuite: every racey micro of the base suite must end
// fully repaired with dynamic evidence, and every ok micro must report
// no targets at all.
func TestRepairWholeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-suite repair in -short mode")
	}
	for _, m := range micro.All() {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			r, rep := repairMicro(t, m.Name())
			if !m.Racey() {
				if len(rep.Outcomes) != 0 {
					t.Fatalf("race-free micro produced outcomes: %+v", rep.Outcomes)
				}
				return
			}
			assertRepaired(t, r, rep)
		})
	}
}

// TestRepairReportJSON: the report round-trips through JSON with the
// fields the CI artifact contract names.
func TestRepairReportJSON(t *testing.T) {
	_, rep := repairMicro(t, "atom.racey.block-cross")
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Bench != rep.Bench || back.FullyRepaired != rep.FullyRepaired || len(back.Outcomes) != len(rep.Outcomes) {
		t.Errorf("JSON round-trip lost fields: %+v vs %+v", back, rep)
	}
}

// TestApplyTraceInapplicable: edits that match nothing are errors, not
// silent no-ops — the repair loop relies on this to discard candidates.
func TestApplyTraceInapplicable(t *testing.T) {
	m := findMicro(t, "fence.racey.cross-none") // weak stores, no fences, no atomics
	_, ops := record(t, m, nil)
	for _, e := range []Edit{
		{Kind: fix.StrengthenFence, Alloc: "m.data"},
		{Kind: fix.PromoteScope, Alloc: "m.data"},
	} {
		if _, _, err := ApplyTrace(e, ops); err == nil {
			t.Errorf("%s on fence-free weak trace: want error, got none", e.Kind)
		}
	}
	if _, _, err := ApplyTrace(Edit{Kind: fix.InsertFence, Alloc: "no.such.alloc", Scope: core.ScopeDevice}, ops); err == nil {
		t.Error("unknown allocation: want error, got none")
	}
}

// TestInsertFenceIdempotent: re-applying an insert-fence edit to its own
// output changes nothing (every anchor is already fenced), so the second
// application is rejected as a no-op.
func TestInsertFenceIdempotent(t *testing.T) {
	m := findMicro(t, "fence.racey.cross-none")
	_, ops := record(t, m, nil)
	e := Edit{Kind: fix.InsertFence, Alloc: "m.data", Scope: core.ScopeDevice}
	once, st, err := ApplyTrace(e, ops)
	if err != nil {
		t.Fatalf("first application: %v", err)
	}
	if st.Inserted == 0 {
		t.Fatal("first application inserted nothing")
	}
	if _, _, err := ApplyTrace(e, once); err == nil {
		t.Error("second application: want no-op error, got acceptance")
	}
}

// TestDemoteLastResort: demotion is the most expensive candidate, so a
// target repairable by a cheaper edit must never fall through to it.
func TestDemoteLastResort(t *testing.T) {
	_, rep := repairMicro(t, "fence.racey.cross-block-fence")
	for _, o := range rep.Outcomes {
		if o.Fix != nil && o.Fix.Kind == fix.DemoteAtomic {
			t.Errorf("demote-atomic chosen for %s though a cheaper fix verifies", o.Target)
		}
	}
}

// TestInsertBarrierErrorDeterministic: when several blocks fail the
// barrier split, the error must name the same block on every call, not
// whichever block map iteration order yields first.
func TestInsertBarrierErrorDeterministic(t *testing.T) {
	access := func(block int, site string) tracefile.Op {
		return tracefile.Op{Kind: tracefile.OpAccess, Access: core.Access{
			Kind: core.KindLoad, Addr: 0x100, Block: block, Site: site,
		}}
	}
	// Site "a" runs on both sides of the "b" split point in each block:
	// a mid-loop split, which both blocks reject. Block 1 comes first in
	// the stream so stream order cannot stand in for block order.
	ops := []tracefile.Op{{Kind: tracefile.OpKernel, Control: &tracefile.Control{Name: "k"}}}
	for _, b := range []int{1, 0} {
		ops = append(ops, access(b, "a"), access(b, "b"), access(b, "a"))
	}
	e := Edit{Kind: fix.InsertBarrier, CurSites: []string{"b"}}
	const want = `repair: site "a" appears on both sides of the barrier point in block 0 (mid-loop split)`
	for i := 0; i < 20; i++ {
		_, _, err := ApplyTrace(e, ops)
		if err == nil || err.Error() != want {
			t.Fatalf("call %d: err = %v, want %q", i, err, want)
		}
	}
}
