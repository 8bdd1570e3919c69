package explore_test

import (
	"bytes"
	"testing"

	"scord/internal/analysis/explore"
	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/replay"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// FuzzExplore feeds arbitrary bytes through the trace reader and the
// schedule explorer. Hostile input must come back as an error, never a
// panic or unbounded search; and on every trace the reader accepts, the
// explorer's own guarantees must hold: each generated schedule is a
// legal reordering under replay.CheckSchedule, and every reported race
// carries a witness that independently re-verifies with
// predict.CheckWitness. The seeds are real recorded micro traces plus
// the masked-race example and simple mutations.
func FuzzExplore(f *testing.F) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	for _, name := range []string{"fence.racey.cross-none", "lock.racey.none-cross", "atom.ok.exch-then-atomicread"} {
		var m *micro.Micro
		for _, cand := range micro.All() {
			if cand.Name() == name {
				m = cand
			}
		}
		if m == nil {
			f.Fatalf("no micro %q", name)
		}
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(m.Name(), nil, cfg))
		if err != nil {
			f.Fatal(err)
		}
		d, err := gpu.New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		d.SetOpSink(tw)
		if err := m.Run(d, nil); err != nil {
			f.Fatal(err)
		}
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		mut := append([]byte(nil), raw...)
		mut[len(mut)/2] ^= 0xff
		f.Add(mut)
	}
	// The masked example, serialized, seeds the corpus with a trace whose
	// interesting schedules are all off the recorded path.
	{
		h, ops := explore.MaskedRaceExample()
		var buf bytes.Buffer
		tw, err := tracefile.NewWriter(&buf, h)
		if err != nil {
			f.Fatal(err)
		}
		for i := range ops {
			op := &ops[i]
			switch op.Kind {
			case tracefile.OpAccess:
				tw.Access(op.Access, op.AtomicOp, op.Size)
			case tracefile.OpFence:
				tw.Fence(op.Block, op.Warp, op.Scope, op.Cycle, op.FromBarrier)
			case tracefile.OpBarrier:
				tw.Barrier(op.Block, op.BarrierID, op.Warps, op.Cycle)
			case tracefile.OpKernel:
				tw.KernelStart(op.Name, op.Blocks, op.Threads, op.Cycle)
			case tracefile.OpKernelEnd:
				tw.KernelEnd(op.Name, op.Cycle)
			case tracefile.OpAlloc:
				tw.Alloc(op.Name, op.Base, op.Bytes)
			}
		}
		if err := tw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("SCTR\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		ops, err := replay.ReadAll(r)
		if err != nil {
			return
		}
		h := r.Header()
		opt := explore.Options{
			MaxSchedules: 8,
			Jobs:         1,
			MaxOps:       1 << 16,
			MaxMemBytes:  1 << 24,
			OnSchedule: func(idx int, perm []int32) error {
				return replay.CheckSchedule(ops, replay.Schedule(ops, perm))
			},
		}
		v, err := explore.Explore(h, ops, opt)
		if err != nil {
			return // rejected input; the error path is the contract
		}
		for _, race := range v.Races {
			if !race.WitnessOK {
				t.Fatalf("explored race %s/%s has an unverified witness: %s",
					race.Alloc, race.Kind, race.WitnessErr)
			}
			_ = predict.Tuple{Alloc: race.Alloc, Kind: race.Kind}
		}
	})
}
