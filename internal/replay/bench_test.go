package replay_test

import (
	"bytes"
	"testing"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/harness"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

var benchResult *replay.Result

// BenchmarkReplayAll reports one scord-serve request's compute: a micro
// trace recorded under the base design, replayed under every target, each
// built fresh, as `detector=all` does. On a trace of a few dozen ops the
// cost is building and resetting the five models.
func BenchmarkReplayAll(b *testing.B) {
	var m *micro.Micro
	for _, c := range micro.All() {
		if c.Name() == "fence.racey.cross-none" {
			m = c
		}
	}
	raw, _, _ := liveRun(b, m, config.Default().WithDetector(config.ModeFull4B))
	tr, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := tr.Header()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range replay.TargetNames() {
			t, err := replay.TargetByName(name, h.Config)
			if err != nil {
				b.Fatal(err)
			}
			if benchResult, err = replay.RunOps(h, ops, t); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// nullTarget is a model that does nothing: a replay under it costs only
// the replay engine's own dispatch.
type nullTarget struct{}

func (nullTarget) Name() string                        { return "null" }
func (nullTarget) OnKernelStart()                      {}
func (nullTarget) OnAccess(core.Access, core.AtomicOp) {}
func (nullTarget) OnFence(int, int, core.Scope)        {}
func (nullTarget) Records() []core.Record              { return nil }

// BenchmarkRunOps replays a recorded GCOL trace (about 575k ops) under a
// model that does nothing, so it measures the replay engine's own
// dispatch: streaming the op slice and calling the target per op. It
// reports ns per op.
func BenchmarkRunOps(b *testing.B) {
	var buf bytes.Buffer
	if err := harness.RecordBenchmark(harness.Options{Jobs: 1}, config.Default(), "GCOL",
		scor.NewGCOL(), config.ModeFull4B, nil, &buf); err != nil {
		b.Fatal(err)
	}
	tr, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	ops, err := replay.ReadAll(tr)
	if err != nil {
		b.Fatal(err)
	}
	h := tr.Header()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchResult, err = replay.RunOps(h, ops, nullTarget{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ops)), "ns/op-replayed")
}
