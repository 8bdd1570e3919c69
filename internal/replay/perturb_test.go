package replay_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// recordOps records one benchmark and decodes its full op sequence.
func recordOps(t *testing.T, b scor.Benchmark, cfg config.Config) (tracefile.Header, []tracefile.Op) {
	t.Helper()
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(b.Name(), nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetOpSink(tw)
	if err := b.Run(d, nil); err != nil {
		t.Fatalf("recording %s: %v", b.Name(), err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Header(), ops
}

// referencePerturb is PerturbTarget's greedy walk as it was first
// written: it copies the whole trace and swaps ops in the copy.
// PerturbTarget swaps permutation entries instead; the two must agree.
func referencePerturb(ops []tracefile.Op, i, j int) ([]tracefile.Op, int, int, bool) {
	if i < 0 || j >= len(ops) || i >= j {
		return nil, 0, 0, false
	}
	out := make([]tracefile.Op, len(ops))
	copy(out, ops)
	for {
		moved := false
		for j > i+1 && replay.Swappable(out[j-1], out[j]) {
			out[j-1], out[j] = out[j], out[j-1]
			j--
			moved = true
		}
		for j > i+1 && replay.Swappable(out[i], out[i+1]) {
			out[i], out[i+1] = out[i+1], out[i]
			i++
			moved = true
		}
		if j == i+1 || !moved {
			return out, i, j, j == i+1
		}
	}
}

// perturbChecked runs PerturbTarget on the pair and fails t unless its
// permutation, materialized by replay.Schedule, is the reference walk's
// schedule, with the same new positions and verdict.
func perturbChecked(t *testing.T, ops []tracefile.Op, i, j int) ([]int32, bool) {
	t.Helper()
	perm, ni, nj, ok := replay.PerturbTarget(ops, i, j)
	want, wi, wj, wok := referencePerturb(ops, i, j)
	if ni != wi || nj != wj || ok != wok {
		t.Fatalf("pair (%d,%d): PerturbTarget gives (%d, %d, %v), the reference (%d, %d, %v)", i, j, ni, nj, ok, wi, wj, wok)
	}
	if got := replay.Schedule(ops, perm); !reflect.DeepEqual(got, want) {
		t.Fatalf("pair (%d,%d): PerturbTarget's schedule differs from the reference walk's", i, j)
	}
	return perm, ok
}

// TestPerturbTargetMatchesReference drives every prediction witness of
// the 32 micros through both walks.
func TestPerturbTargetMatchesReference(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	witnesses := 0
	for _, m := range micro.All() {
		h, ops := recordOps(t, m, cfg)
		res, err := predict.Run(h, ops, predict.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, p := range res.Predictions {
			perturbChecked(t, ops, p.Witness.Prev, p.Witness.Cur)
			witnesses++
		}
	}
	if witnesses == 0 {
		t.Fatal("no micro has a prediction; test exercises nothing")
	}
}

// TestPerturbTarget checks the targeted mode: the returned schedule is a
// legal permutation (per-warp program order intact, non-access ops
// pinned), the reported indices hold the original pair ops, and when
// adjacency is reported the pair really is adjacent.
func TestPerturbTarget(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	bench := &scor.Conv1D{N: 1024, Taps: 9, Blocks: 4, TPB: 64}
	_, ops := recordOps(t, bench, cfg)

	// Find a cross-warp access pair with room between the two ops and no
	// intervening non-access op, so adjacency must be reachable.
	pick := func() (int, int) {
		for i := range ops {
			if ops[i].Kind != tracefile.OpAccess {
				continue
			}
			for j := i + 4; j < len(ops) && j < i+40; j++ {
				if ops[j].Kind != tracefile.OpAccess {
					break
				}
				a, b := ops[i].Access, ops[j].Access
				if a.Block == b.Block && a.Warp == b.Warp {
					continue
				}
				clear := true
				for k := i + 1; k < j; k++ {
					if ops[k].Kind != tracefile.OpAccess {
						clear = false
						break
					}
				}
				if clear {
					return i, j
				}
			}
		}
		t.Fatal("no suitable access pair found")
		return 0, 0
	}
	i, j := pick()

	perm, ni, nj, ok := replay.PerturbTarget(ops, i, j)
	if !ok {
		t.Fatalf("adjacency not reached for clear pair (%d, %d)", i, j)
	}
	out := replay.Schedule(ops, perm)
	if nj != ni+1 {
		t.Fatalf("reported indices not adjacent: %d, %d", ni, nj)
	}
	if !reflect.DeepEqual(out[ni], ops[i]) || !reflect.DeepEqual(out[nj], ops[j]) {
		t.Fatal("reported indices do not hold the original pair ops")
	}

	// Same structural invariants as Perturb.
	count := func(s []tracefile.Op) map[string]int {
		c := map[string]int{}
		for _, op := range s {
			c[fmt.Sprintf("%+v", op)]++
		}
		return c
	}
	if !reflect.DeepEqual(count(ops), count(out)) {
		t.Fatal("targeted perturbation is not a permutation of the original")
	}
	warpSeq := func(s []tracefile.Op) map[[2]int][]core.Access {
		seq := map[[2]int][]core.Access{}
		for _, op := range s {
			if op.Kind == tracefile.OpAccess {
				k := [2]int{op.Access.Block, op.Access.Warp}
				seq[k] = append(seq[k], op.Access)
			}
		}
		return seq
	}
	if !reflect.DeepEqual(warpSeq(ops), warpSeq(out)) {
		t.Fatal("per-warp program order changed")
	}

	// Determinism and input immutability.
	perm2, ni2, nj2, ok2 := replay.PerturbTarget(ops, i, j)
	if !ok2 || ni2 != ni || nj2 != nj || !reflect.DeepEqual(perm, perm2) {
		t.Fatal("PerturbTarget is not deterministic")
	}
}

// TestPerturbTargetBlocked: a pair separated by a fence op cannot be
// made adjacent, and the attempt still returns a legal permutation.
func TestPerturbTargetBlocked(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	var bench scor.Benchmark
	for _, m := range micro.All() {
		if m.Name() == "fence.ok.cross-device-fence" {
			bench = m
		}
	}
	if bench == nil {
		t.Fatal("micro not found")
	}
	_, ops := recordOps(t, bench, cfg)

	// Pick accesses straddling a fence op.
	fence := -1
	for k, op := range ops {
		if op.Kind == tracefile.OpFence {
			fence = k
			break
		}
	}
	if fence < 0 {
		t.Fatal("no fence in trace")
	}
	i, j := -1, -1
	for k := fence - 1; k >= 0; k-- {
		if ops[k].Kind == tracefile.OpAccess {
			i = k
			break
		}
	}
	for k := fence + 1; k < len(ops); k++ {
		if ops[k].Kind == tracefile.OpAccess && i >= 0 &&
			(ops[k].Access.Block != ops[i].Access.Block || ops[k].Access.Warp != ops[i].Access.Warp) {
			j = k
			break
		}
	}
	if i < 0 || j < 0 {
		t.Skip("no cross-warp pair straddles the fence")
	}
	perm, ni, nj, ok := replay.PerturbTarget(ops, i, j)
	if ok {
		t.Fatalf("pair (%d, %d) straddling the fence at %d reported adjacent", i, j, fence)
	}
	if nj <= ni {
		t.Fatalf("indices out of order: %d, %d", ni, nj)
	}
	if len(perm) != len(ops) {
		t.Fatalf("permutation has %d entries for %d ops", len(perm), len(ops))
	}
}

// TestPerturbTargetBarrierSeparated: a witness pair separated by a
// barrier in every legal schedule must come back not-adjacent. The
// barrier op is not an access, so neither walk direction can cross it;
// the search must stop at the barrier and return, never loop.
func TestPerturbTargetBarrierSeparated(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	var bench scor.Benchmark
	for _, m := range micro.All() {
		if m.Name() == "fence.ok.same-barrier" {
			bench = m
		}
	}
	if bench == nil {
		t.Fatal("micro fence.ok.same-barrier not found")
	}
	_, ops := recordOps(t, bench, cfg)

	// The micro is store / SyncThreads / load across two warps of one
	// block: pick the last access before the barrier and the first
	// cross-warp access after it.
	barrier := -1
	for k, op := range ops {
		if op.Kind == tracefile.OpBarrier {
			barrier = k
			break
		}
	}
	if barrier < 0 {
		t.Fatal("no barrier in fence.ok.same-barrier trace")
	}
	i, j := -1, -1
	for k := barrier - 1; k >= 0; k-- {
		if ops[k].Kind == tracefile.OpAccess {
			i = k
			break
		}
	}
	for k := barrier + 1; k < len(ops); k++ {
		if ops[k].Kind == tracefile.OpAccess && i >= 0 &&
			(ops[k].Access.Block != ops[i].Access.Block || ops[k].Access.Warp != ops[i].Access.Warp) {
			j = k
			break
		}
	}
	if i < 0 || j < 0 {
		t.Fatalf("no cross-warp access pair straddles the barrier at %d", barrier)
	}

	perm, ni, nj, ok := replay.PerturbTarget(ops, i, j)
	if ok {
		t.Fatalf("pair (%d, %d) straddling the barrier at %d reported adjacent", i, j, barrier)
	}
	if nj <= ni+1 {
		t.Fatalf("not-adjacent result has adjacent indices: %d, %d", ni, nj)
	}
	out := replay.Schedule(ops, perm)
	if len(out) != len(ops) {
		t.Fatalf("length changed: %d -> %d", len(ops), len(out))
	}
	if !reflect.DeepEqual(out[ni], ops[i]) || !reflect.DeepEqual(out[nj], ops[j]) {
		t.Fatal("reported indices do not hold the original pair ops")
	}
	// The barrier itself must still sit between them.
	sep := false
	for k := ni + 1; k < nj; k++ {
		if out[k].Kind == tracefile.OpBarrier {
			sep = true
		}
	}
	if !sep {
		t.Fatal("barrier no longer separates the pair")
	}
}

// TestPerturbTargetBarrierWalk pins the exact stop behavior on a
// synthetic trace: both walk directions make progress past movable
// filler accesses, hit the barrier, and the search terminates via its
// no-further-motion exit with the pair two slots apart.
func TestPerturbTargetBarrierWalk(t *testing.T) {
	acc := func(warp int, addr uint64) tracefile.Op {
		return tracefile.Op{Kind: tracefile.OpAccess,
			Access: core.Access{Warp: warp, Addr: addr}}
	}
	ops := []tracefile.Op{
		acc(0, 0), // i: must advance past the warp-1 filler, then stop
		acc(1, 8), // filler
		{Kind: tracefile.OpBarrier},
		acc(0, 16), // filler
		acc(1, 24), // j: must retreat past the warp-0 filler, then stop
	}
	perm, ni, nj, ok := replay.PerturbTarget(ops, 0, 4)
	if ok {
		t.Fatalf("barrier-separated pair reported adjacent: ni=%d nj=%d", ni, nj)
	}
	out := replay.Schedule(ops, perm)
	if ni != 1 || nj != 3 {
		t.Fatalf("walk stopped at (%d, %d), want (1, 3) — flush against the barrier", ni, nj)
	}
	if out[2].Kind != tracefile.OpBarrier {
		t.Fatalf("barrier moved: %+v", out[2])
	}
	if !reflect.DeepEqual(out[ni], ops[0]) || !reflect.DeepEqual(out[nj], ops[4]) {
		t.Fatal("reported indices do not hold the original pair ops")
	}
}

// TestPerturbTargetInvalidArgs: out-of-range or inverted pairs are
// rejected.
func TestPerturbTargetInvalidArgs(t *testing.T) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	bench := &scor.Conv1D{N: 256, Taps: 5, Blocks: 2, TPB: 32}
	_, ops := recordOps(t, bench, cfg)
	for _, c := range [][2]int{{-1, 5}, {5, 5}, {7, 3}, {0, len(ops)}} {
		if perm, _, _, ok := replay.PerturbTarget(ops, c[0], c[1]); ok || perm != nil {
			t.Errorf("PerturbTarget(%d, %d) unexpectedly ok or made a permutation", c[0], c[1])
		}
	}
}
