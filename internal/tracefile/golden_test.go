package tracefile_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"

	"scord/internal/config"
	"scord/internal/harness"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

var update = flag.Bool("update", false, "rewrite the golden traces under testdata/")

// goldenSpecs is the checked-in trace corpus: two microbenchmarks (one
// racey, one clean) and one application at reduced scale, all recorded
// under the default configuration with full-4B detection and no
// injections — the same recording RecordMicros performs.
func goldenSpecs(t testing.TB) []struct {
	File  string
	Bench scor.Benchmark
} {
	return []struct {
		File  string
		Bench scor.Benchmark
	}{
		{"fence.racey.cross-none.sctr", microByName(t, "fence.racey.cross-none")},
		{"lock.ok.device-cross.sctr", microByName(t, "lock.ok.device-cross")},
		{"1dc.reduced.sctr", &scor.Conv1D{N: 1024, Taps: 9, Blocks: 4, TPB: 64}},
	}
}

func microByName(t testing.TB, name string) *micro.Micro {
	t.Helper()
	for _, m := range micro.All() {
		if m.Name() == name {
			return m
		}
	}
	t.Fatalf("no micro named %q", name)
	return nil
}

// recordGolden produces the canonical recording for one corpus entry.
func recordGolden(t testing.TB, b scor.Benchmark) []byte {
	t.Helper()
	var buf bytes.Buffer
	opt := harness.Options{Jobs: 1}
	err := harness.RecordBenchmark(opt, config.Default(), "golden/"+b.Name(), b,
		config.ModeFull4B, nil, &buf)
	if err != nil {
		t.Fatalf("recording %s: %v", b.Name(), err)
	}
	return buf.Bytes()
}

// TestGoldenTraces re-records every corpus entry and requires byte
// identity with the checked-in file. Run with -update to regenerate
// after an intentional format or simulator change.
func TestGoldenTraces(t *testing.T) {
	for _, spec := range goldenSpecs(t) {
		spec := spec
		t.Run(spec.File, func(t *testing.T) {
			t.Parallel()
			got := recordGolden(t, spec.Bench)
			path := filepath.Join("testdata", spec.File)
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("re-recording %s produced %d bytes differing from the %d-byte golden; "+
					"if the trace format or simulator changed intentionally, rerun with -update",
					spec.File, len(got), len(want))
			}
		})
	}
}

// TestGoldenTracesReplayable decodes every checked-in golden end to end,
// proving the corpus itself is well-formed at the current format version.
func TestGoldenTracesReplayable(t *testing.T) {
	for _, spec := range goldenSpecs(t) {
		f, err := os.Open(filepath.Join("testdata", spec.File))
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		r, err := tracefile.NewReader(f)
		if err != nil {
			f.Close()
			t.Fatalf("%s: %v", spec.File, err)
		}
		ops := 0
		for {
			_, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: op %d: %v", spec.File, ops, err)
			}
			ops++
		}
		f.Close()
		if ops == 0 {
			t.Errorf("%s decoded zero ops", spec.File)
		}
		if r.Header().Benchmark != spec.Bench.Name() {
			t.Errorf("%s: header benchmark %q, want %q", spec.File, r.Header().Benchmark, spec.Bench.Name())
		}
	}
}

// TestRecordMicrosJobsIndependent records the full micro corpus at
// different worker counts and requires every trace file to be
// byte-identical across them — and identical to the checked-in goldens
// where one exists. Recording parallelism exists only across files;
// each file's bytes come from one single-threaded simulation.
func TestRecordMicrosJobsIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("records the whole micro corpus twice")
	}
	dirs := map[int]string{}
	for _, jobs := range []int{1, 4} {
		dir := t.TempDir()
		if err := harness.RecordMicros(harness.Options{Jobs: jobs}, dir); err != nil {
			t.Fatalf("RecordMicros(jobs=%d): %v", jobs, err)
		}
		dirs[jobs] = dir
	}
	for _, m := range micro.All() {
		name := m.Name() + harness.TraceExt
		a, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[4], name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -jobs 1 and -jobs 4", name)
		}
	}
	for _, file := range []string{"fence.racey.cross-none.sctr", "lock.ok.device-cross.sctr"} {
		want, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatalf("missing golden: %v", err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[4], file))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("RecordMicros output for %s differs from the checked-in golden", file)
		}
	}
}

// TestGoldenCorpusSize keeps the checked-in corpus honest: small enough
// to live in git, large enough to exercise multi-block encoding.
func TestGoldenCorpusSize(t *testing.T) {
	total := int64(0)
	for _, spec := range goldenSpecs(t) {
		fi, err := os.Stat(filepath.Join("testdata", spec.File))
		if err != nil {
			t.Skipf("goldens not generated yet: %v", err)
		}
		total += fi.Size()
	}
	if total > 4<<20 {
		t.Fatalf("golden corpus is %d bytes; keep it under 4 MiB", total)
	}
}

// encodeBySelectors writes decoded ops back through a Writer, reading each
// op only through the 16 selectors the repository benchmark's trace
// encoder uses (perfbench/tracewl.go encode). A change to Op that renames
// or retypes one of them fails this test, not only the benchmark's build.
func encodeBySelectors(tb testing.TB, h tracefile.Header, ops []tracefile.Op) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf, h)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case tracefile.OpAccess:
			w.Access(op.Access, op.AtomicOp, op.Size)
		case tracefile.OpFence:
			w.Fence(op.Block, op.Warp, op.Scope, op.Cycle, op.FromBarrier)
		case tracefile.OpBarrier:
			w.Barrier(op.Block, op.BarrierID, op.Warps, op.Cycle)
		case tracefile.OpKernel:
			w.KernelStart(op.Name, op.Blocks, op.Threads, op.Cycle)
		case tracefile.OpKernelEnd:
			w.KernelEnd(op.Name, op.Cycle)
		case tracefile.OpAlloc:
			w.Alloc(op.Name, op.Base, op.Bytes)
		default:
			tb.Fatalf("op %d: unknown kind %v", i, op.Kind)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReencodeBySelectors decodes the golden corpus and a GCOL recording
// and re-encodes every op through encodeBySelectors: the bytes must equal
// the input, so those selectors reach every field the format stores.
func TestReencodeBySelectors(t *testing.T) {
	traces := map[string][]byte{"GCOL": gcolTrace(t)}
	for _, spec := range goldenSpecs(t) {
		raw, err := os.ReadFile(filepath.Join("testdata", spec.File))
		if err != nil {
			t.Fatalf("missing golden (run with -update to create): %v", err)
		}
		traces[spec.File] = raw
	}
	for name, raw := range traces {
		r, err := tracefile.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ops, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encodeBySelectors(t, r.Header(), ops); !bytes.Equal(got, raw) {
			t.Errorf("%s: re-encoding %d ops gave %d bytes that differ from the %d read", name, len(ops), len(got), len(raw))
		}
	}
}
