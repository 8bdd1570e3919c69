package replay_test

import (
	"bytes"
	"testing"

	"scord/internal/config"
	"scord/internal/replay"
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
