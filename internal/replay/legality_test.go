package replay_test

import (
	"bytes"
	"math/rand"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// recordLegalityOps records one micro live and decodes its trace.
func recordLegalityOps(t *testing.T, name string) []tracefile.Op {
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
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
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
	return ops
}

// TestCheckScheduleAcceptsPerturbations: seeded random walks of
// Swappable adjacent exchanges and PerturbTarget's greedy walk both emit
// products of Swappable exchanges by construction, so the closed-form
// checker must accept all of them. Every pair the greedy walk is driven
// on must also give the reference walk's schedule.
func TestCheckScheduleAcceptsPerturbations(t *testing.T) {
	ops := recordLegalityOps(t, "fence.racey.cross-none")
	if err := replay.CheckSchedule(ops, ops); err != nil {
		t.Fatalf("identity schedule rejected: %v", err)
	}
	// Each walk moves 50 random ops forward by up to 8 legal swaps.
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := append([]tracefile.Op(nil), ops...)
		for s := 0; s < 50; s++ {
			i := rng.Intn(len(p) - 1)
			for k := 1 + rng.Intn(8); k > 0 && i+1 < len(p) && replay.Swappable(p[i], p[i+1]); k-- {
				p[i], p[i+1] = p[i+1], p[i]
				i++
			}
		}
		if err := replay.CheckSchedule(ops, p); err != nil {
			t.Fatalf("seed %d: random swap walk rejected: %v", seed, err)
		}
	}
	// Drive every access pair the greedy walker accepts through the
	// checker too.
	pairs := 0
	for i := 0; i < len(ops) && pairs < 50; i++ {
		for j := i + 1; j < len(ops) && pairs < 50; j++ {
			if ops[i].Kind != tracefile.OpAccess || ops[j].Kind != tracefile.OpAccess {
				continue
			}
			perm, ok := perturbChecked(t, ops, i, j)
			if !ok {
				continue
			}
			pairs++
			if err := replay.CheckSchedule(ops, replay.Schedule(ops, perm)); err != nil {
				t.Fatalf("pair (%d,%d): PerturbTarget schedule rejected: %v", i, j, err)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no PerturbTarget pair reached adjacency; test exercises nothing")
	}
}

// TestCheckScheduleRejectsIllegal: hand-built violations of each rule
// must be caught.
func TestCheckScheduleRejectsIllegal(t *testing.T) {
	ops := recordLegalityOps(t, "fence.racey.cross-none")

	// Moving a pinned non-access op.
	var fenceIdx int = -1
	for i, op := range ops {
		if op.Kind == tracefile.OpFence {
			fenceIdx = i
			break
		}
	}
	if fenceIdx > 0 {
		bad := append([]tracefile.Op(nil), ops...)
		bad[fenceIdx-1], bad[fenceIdx] = bad[fenceIdx], bad[fenceIdx-1]
		if err := replay.CheckSchedule(ops, bad); err == nil {
			t.Error("moved fence accepted")
		}
	}

	// Inverting program order: swap two adjacent ops of one warp.
	swapped := false
	for i := 0; i+1 < len(ops); i++ {
		x, y := ops[i], ops[i+1]
		if x.Kind != tracefile.OpAccess || y.Kind != tracefile.OpAccess {
			continue
		}
		if x.Access.Block == y.Access.Block && x.Access.Warp == y.Access.Warp && x != y {
			bad := append([]tracefile.Op(nil), ops...)
			bad[i], bad[i+1] = bad[i+1], bad[i]
			if err := replay.CheckSchedule(ops, bad); err == nil {
				t.Error("program-order inversion accepted")
			}
			swapped = true
			break
		}
	}
	if !swapped {
		t.Log("no adjacent same-warp pair found; program-order case skipped")
	}

	// Dropping an op entirely (length mismatch).
	if err := replay.CheckSchedule(ops, ops[:len(ops)-1]); err == nil {
		t.Error("truncated schedule accepted")
	}

	// Replacing an op with a copy of another (not a permutation).
	bad := append([]tracefile.Op(nil), ops...)
	var ai, bi int = -1, -1
	for i, op := range ops {
		if op.Kind != tracefile.OpAccess {
			continue
		}
		if ai < 0 {
			ai = i
		} else if op.Access.Warp != ops[ai].Access.Warp || op.Access.Block != ops[ai].Access.Block {
			bi = i
			break
		}
	}
	if ai >= 0 && bi >= 0 {
		bad[bi] = bad[ai]
		if err := replay.CheckSchedule(ops, bad); err == nil {
			t.Error("duplicated op accepted")
		}
	}
}

// TestCheckScheduleSyncOrder: a same-word plain access crossing a
// syncish access is illegal even across warps.
func TestCheckScheduleSyncOrder(t *testing.T) {
	mk := func(block, warp int, addr uint64, kind tracefile.OpKind) tracefile.Op {
		op := tracefile.Op{Kind: kind}
		op.Access.Block, op.Access.Warp, op.Access.Addr = block, warp, addr
		return op
	}
	plain := mk(0, 0, 4, tracefile.OpAccess)
	atomicOp := mk(0, 1, 4, tracefile.OpAccess)
	atomicOp.Access.Kind = core.KindAtomic
	other := mk(0, 2, 64, tracefile.OpAccess)

	orig := []tracefile.Op{plain, atomicOp, other}
	legal := []tracefile.Op{plain, other, atomicOp}
	if err := replay.CheckSchedule(orig, legal); err != nil {
		t.Fatalf("legal cross-word swap rejected: %v", err)
	}
	illegal := []tracefile.Op{atomicOp, plain, other}
	if err := replay.CheckSchedule(orig, illegal); err == nil {
		t.Fatal("plain access crossed a same-word atomic and was accepted")
	}
}
