package predict_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"scord/internal/analysis/predict"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/harness"
	"scord/internal/mem"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

// sameAsReference requires Run to return exactly what the map-based
// reference returns: every prediction in order, every witness, and the
// op, access and kernel counts. It reports the number of predictions.
func sameAsReference(t *testing.T, h tracefile.Header, ops []tracefile.Op) int {
	t.Helper()
	got, err := predict.Run(h, ops, predict.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want, err := predict.ReferenceRun(h, ops, predict.Options{})
	if err != nil {
		t.Fatalf("ReferenceRun: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		n := min(len(got.Predictions), len(want.Predictions))
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(got.Predictions[i], want.Predictions[i]) {
				t.Fatalf("prediction %d differs from the reference:\n  got  %+v\n  want %+v", i, got.Predictions[i], want.Predictions[i])
			}
		}
		t.Fatalf("result differs from the reference: %d predictions (want %d), ops/accesses/kernels %d/%d/%d (want %d/%d/%d)",
			len(got.Predictions), len(want.Predictions), got.Ops, got.Accesses, got.Kernels, want.Ops, want.Accesses, want.Kernels)
	}
	return len(got.Predictions)
}

// TestEquivalentOnMicros runs every micro and extension micro under all
// four ITS x AcqRel configurations.
func TestEquivalentOnMicros(t *testing.T) {
	micros := append(append([]*micro.Micro{}, micro.All()...), micro.Extensions()...)
	total := 0
	for _, its := range []bool{false, true} {
		for _, acqrel := range []bool{false, true} {
			cfg := config.Default().WithDetector(config.ModeFull4B)
			cfg.Detector.ITS, cfg.Detector.AcqRel = its, acqrel
			for _, m := range micros {
				t.Run(fmt.Sprintf("its=%v/acqrel=%v/%s", its, acqrel, m.Name()), func(t *testing.T) {
					raw, _ := record(t, m, cfg)
					h, ops, _ := analyze(t, raw)
					total += sameAsReference(t, h, ops)
				})
			}
		}
	}
	if total == 0 {
		t.Fatal("no micro produced a prediction; the comparison checked nothing")
	}
}

var apps struct {
	sync.Mutex
	raw map[string][]byte
}

// appTrace records one ScoR app at its default size once per test
// binary, as `scord-replay record -bench <name>` would.
func appTrace(tb testing.TB, name string, b scor.Benchmark) []byte {
	tb.Helper()
	apps.Lock()
	defer apps.Unlock()
	if raw, ok := apps.raw[name]; ok {
		return raw
	}
	var buf bytes.Buffer
	if err := harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(), name, b,
		config.ModeFull4B, nil, &buf); err != nil {
		tb.Fatalf("recording %s: %v", name, err)
	}
	if apps.raw == nil {
		apps.raw = map[string][]byte{}
	}
	apps.raw[name] = buf.Bytes()
	return buf.Bytes()
}

// TestEquivalentOnApps covers many launches (GCOL has 27), long per-word
// thread lists (MM scans about 20 slots per access) and the largest
// recorded traces.
func TestEquivalentOnApps(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("records whole apps")
	}
	for _, app := range []struct {
		name string
		b    scor.Benchmark
	}{
		{"GCOL", scor.NewGCOL()},
		{"GCON", scor.NewGCON()},
		{"MM", scor.NewMM()},
		{"UTS", scor.NewUTS()},
	} {
		t.Run(app.name, func(t *testing.T) {
			h, ops, _ := analyze(t, appTrace(t, app.name, app.b))
			sameAsReference(t, h, ops)
		})
	}
}

// synthTrace generates a seeded trace that stresses the per-kernel state:
// a few hot words spread over several index pages, touched by many
// threads (diverged lanes included) across kernels, with barriers,
// fences and every atomic flavour in between.
func synthTrace(seed int64, its, acqrel bool) (tracefile.Header, []tracefile.Op) {
	rng := rand.New(rand.NewSource(seed))
	cfg := config.Default().WithDetector(config.ModeFull4B)
	cfg.Detector.ITS, cfg.Detector.AcqRel = its, acqrel
	h := tracefile.NewHeader("synth", nil, cfg)

	mm := mem.NewMap(uint64(cfg.DeviceMemBytes))
	var ops []tracefile.Op
	var words []uint64
	for _, al := range []struct {
		name  string
		bytes uint64
	}{{"locks", 256}, {"data", 1 << 20}} {
		base := uint64(mm.Alloc(al.name, al.bytes))
		ops = append(ops, tracefile.Op{Kind: tracefile.OpAlloc, Control: &tracefile.Control{Name: al.name, Base: base, Bytes: al.bytes}})
		// Four words at the allocation's start and four in each of two
		// pages further in, when it has them.
		for _, off := range []uint64{0, 5 << 12, 200 << 12} {
			if off < al.bytes {
				for w := uint64(0); w < 4; w++ {
					words = append(words, (base+off)/mem.WordBytes+w)
				}
			}
		}
	}

	const blocks, warps = 4, 4
	cycle := uint64(0)
	sites := []string{"k.a", "k.b", "k.c"}
	atomics := []core.AtomicOp{core.AtomicOther, core.AtomicCAS, core.AtomicExch,
		core.AtomicMaxOp, core.AtomicAcquire, core.AtomicRelease}
	for k := 0; k < 6; k++ {
		ops = append(ops, tracefile.Op{Kind: tracefile.OpKernel, Control: &tracefile.Control{Name: "k", Blocks: blocks, Threads: warps * 32}})
		for n := 0; n < 600; n++ {
			cycle += uint64(1 + rng.Intn(8))
			block, warp := rng.Intn(blocks), rng.Intn(warps)
			scope := core.Scope(rng.Intn(2))
			switch r := rng.Intn(30); {
			case r == 0:
				ops = append(ops, tracefile.Op{Kind: tracefile.OpBarrier, Access: core.Access{Block: block, Cycle: cycle}, Control: &tracefile.Control{Warps: warps}})
			case r <= 2:
				ops = append(ops, tracefile.Op{Kind: tracefile.OpFence, Access: core.Access{Block: block, Warp: warp, Scope: scope, Cycle: cycle}})
			default:
				acc := core.Access{
					Kind:     core.AccessKind(rng.Intn(3)),
					Scope:    scope,
					Strong:   rng.Intn(5) != 0,
					Diverged: rng.Intn(3) == 0,
					Block:    block,
					Warp:     warp,
					Lane:     rng.Intn(32),
					Addr:     words[rng.Intn(len(words))]*mem.WordBytes + uint64(rng.Intn(4)),
					Cycle:    cycle,
					Site:     sites[rng.Intn(len(sites))],
				}
				aop := core.AtomicOther
				if rng.Intn(4) == 0 {
					aop = atomics[rng.Intn(len(atomics))]
				}
				ops = append(ops, tracefile.Op{Kind: tracefile.OpAccess, Access: acc, AtomicOp: aop, Size: 4})
			}
		}
		ops = append(ops, tracefile.Op{Kind: tracefile.OpKernelEnd, Control: &tracefile.Control{Name: "k"}, Access: core.Access{Cycle: cycle}})
	}
	return h, ops
}

// TestEquivalentOnSynthetic compares seeded synthetic traces under the
// four ITS x AcqRel configurations.
func TestEquivalentOnSynthetic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, its := range []bool{false, true} {
			for _, acqrel := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed=%d/its=%v/acqrel=%v", seed, its, acqrel), func(t *testing.T) {
					h, ops := synthTrace(seed, its, acqrel)
					if n := sameAsReference(t, h, ops); n == 0 {
						t.Fatal("no predictions; the comparison checked nothing")
					}
				})
			}
		}
	}
}
