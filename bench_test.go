// Benchmarks that regenerate every table and figure of the ScoRD paper's
// evaluation (Section V). Each benchmark runs the corresponding harness
// experiment and reports the headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Per-row data is printed once per
// benchmark via b.Logf (visible with -v).
package scord_test

import (
	"bytes"
	"testing"
	"time"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/harness"
	"scord/internal/mem"
	"scord/internal/obs"
	"scord/internal/replay"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/tracefile"
)

func opts() harness.Options { return harness.Options{} }

// BenchmarkTable1_Micro runs the 32 microbenchmarks of Table I under ScoRD.
func BenchmarkTable1_Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		racey := 0
		for _, m := range micro.All() {
			d, err := gpu.New(config.Default().WithDetector(config.ModeCached))
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Run(d, nil); err != nil {
				b.Fatal(err)
			}
			if m.Racey() {
				racey++
			}
		}
		b.ReportMetric(float64(racey), "racey-tests")
		b.ReportMetric(float64(len(micro.All())-racey), "nonracey-tests")
	}
}

// BenchmarkTable2_Apps runs the seven applications of Table II, correctly
// synchronized, under ScoRD.
func BenchmarkTable2_Apps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var cycles uint64
		for _, app := range scor.Apps() {
			d, err := gpu.New(config.Default().WithDetector(config.ModeCached))
			if err != nil {
				b.Fatal(err)
			}
			if err := app.Run(d, nil); err != nil {
				b.Fatal(err)
			}
			cycles += d.Stats().Cycles
		}
		b.ReportMetric(float64(cycles), "total-sim-cycles")
	}
}

// BenchmarkTable6_RacesCaught regenerates Table VI: 44 unique races across
// the suite, caught by the base design and by ScoRD.
func BenchmarkTable6_RacesCaught(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t6, err := harness.RunTable6(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t6.Total.Present), "races-present")
		b.ReportMetric(float64(t6.Total.Base), "caught-base")
		b.ReportMetric(float64(t6.Total.ScoRD), "caught-scord")
		if i == 0 {
			b.Logf("\n%s", t6.Render())
		}
	}
}

// BenchmarkTable7_FalsePositives regenerates Table VII: false positives
// versus metadata tracking granularity.
func BenchmarkTable7_FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t7, err := harness.RunTable7(opts())
		if err != nil {
			b.Fatal(err)
		}
		fp4, fpScoRD := 0, 0
		for _, r := range t7.Rows {
			fp4 += r.FP4B
			fpScoRD += r.ScoRD
		}
		b.ReportMetric(float64(fp4), "fp-4byte")
		b.ReportMetric(float64(fpScoRD), "fp-scord")
		if i == 0 {
			b.Logf("\n%s", t7.Render())
		}
	}
}

// BenchmarkTable8_DetectorMatrix regenerates Table VIII: the capability
// matrix of LDetector/HAccRG/Barracuda/CURD/ScoRD, measured on the
// microbenchmark suite.
func BenchmarkTable8_DetectorMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t8, err := harness.RunTable8(opts())
		if err != nil {
			b.Fatal(err)
		}
		last := t8.Rows[len(t8.Rows)-1] // ScoRD row
		caught := last.Fences.Caught + last.Locks.Caught +
			last.ScopedFences.Caught + last.ScopedAtomics.Caught
		b.ReportMetric(float64(caught), "scord-caught")
		b.ReportMetric(float64(last.FalsePositives), "scord-fps")
		if i == 0 {
			b.Logf("\n%s", t8.Render())
		}
	}
}

// BenchmarkFig8_Performance regenerates Figure 8: execution cycles under
// the base design and ScoRD, normalized to no race detection.
func BenchmarkFig8_Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f8, err := harness.RunFig8(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f8.GeoScoRD, "scord-slowdown-geomean")
		b.ReportMetric(f8.GeoBase, "base-slowdown-geomean")
		if i == 0 {
			b.Logf("\n%s", f8.Render())
		}
	}
}

// BenchmarkFig9_DRAM regenerates Figure 9: DRAM accesses split into data
// and metadata, normalized to no race detection.
func BenchmarkFig9_DRAM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f9, err := harness.RunFig9(opts())
		if err != nil {
			b.Fatal(err)
		}
		var baseMeta, scordMeta float64
		for _, r := range f9.Rows {
			baseMeta += r.BaseMeta
			scordMeta += r.ScoRDMeta
		}
		n := float64(len(f9.Rows))
		b.ReportMetric(baseMeta/n, "base-meta-dram-norm")
		b.ReportMetric(scordMeta/n, "scord-meta-dram-norm")
		if i == 0 {
			b.Logf("\n%s", f9.Render())
		}
	}
}

// BenchmarkFig10_Breakdown regenerates Figure 10: the LHD/NOC/MD overhead
// attribution.
func BenchmarkFig10_Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f10, err := harness.RunFig10(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*f10.AvgLHD, "lhd-pct")
		b.ReportMetric(100*f10.AvgNOC, "noc-pct")
		b.ReportMetric(100*f10.AvgMD, "md-pct")
		if i == 0 {
			b.Logf("\n%s", f10.Render())
		}
	}
}

// BenchmarkAblationCacheRatio sweeps the software metadata cache ratio
// (DESIGN.md's first design-choice ablation).
func BenchmarkAblationCacheRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := harness.RunAblationCacheRatio(opts())
		if err != nil {
			b.Fatal(err)
		}
		def := a.Rows[2] // 16:1
		b.ReportMetric(def.Slowdown, "slowdown-at-16to1")
		b.ReportMetric(float64(def.Caught), "races-caught-at-16to1")
		if i == 0 {
			b.Logf("\n%s", a.Render())
		}
	}
}

// BenchmarkAblationInbox sweeps the detector inbox size.
func BenchmarkAblationInbox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := harness.RunAblationInbox(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Rows[0].Stalls), "stalls-at-inbox1")
		if i == 0 {
			b.Logf("\n%s", a.Render())
		}
	}
}

// BenchmarkAblationRate sweeps the detector service rate.
func BenchmarkAblationRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := harness.RunAblationRate(opts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(a.Rows[0].Slowdown, "slowdown-at-rate1")
		b.ReportMetric(a.Rows[2].Slowdown, "slowdown-at-rate4")
		if i == 0 {
			b.Logf("\n%s", a.Render())
		}
	}
}

// BenchmarkObsOverhead quantifies the observability tax on the device hot
// path: one kernel run with every observer detached (the default), with a
// cycle-domain sampler attached, and with a live cycle gauge attached as
// the device's probe.
// Compare the sub-benchmarks with -benchmem — the acceptance gate is that
// "detached" matches a bare run exactly (observers you don't attach cost
// nothing; the per-request fast path is additionally pinned to zero
// allocations by obs.TestSamplerFastPathAllocationFree).
func BenchmarkObsOverhead(b *testing.B) {
	runOnce := func(b *testing.B, attach func(d *gpu.Device) func(now uint64)) {
		d, err := gpu.New(config.Default().WithDetector(config.ModeCached))
		if err != nil {
			b.Fatal(err)
		}
		finish := attach(d)
		buf := d.Alloc("buf", 1<<16)
		if err := d.Launch("obs.bench", 8, 64, func(c *gpu.Ctx) {
			base := buf + mem.Addr(c.GlobalWarp()*1024)
			for i := 0; i < 64; i++ {
				c.Store(base+mem.Addr(4*i), uint32(i))
				c.Work(3)
				c.Load(base + mem.Addr(4*i))
			}
			c.SyncThreads()
			c.Fence(gpu.ScopeDevice)
		}); err != nil {
			b.Fatal(err)
		}
		finish(d.Cycles())
	}
	b.Run("detached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, func(d *gpu.Device) func(uint64) { return func(uint64) {} })
		}
	})
	b.Run("sampler-10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			runOnce(b, func(d *gpu.Device) func(uint64) {
				s := obs.NewSampler(d, 10_000, &obs.Series{Label: "bench"})
				d.SetProbe(s)
				return s.Flush
			})
		}
	})
	b.Run("cycle-gauge", func(b *testing.B) {
		b.ReportAllocs()
		var g obs.JobProgress
		for i := 0; i < b.N; i++ {
			runOnce(b, func(d *gpu.Device) func(uint64) {
				d.SetProbe(&g)
				return func(uint64) {}
			})
		}
	})
}

// BenchmarkReplayVsSim compares one full timing simulation of an
// application against replaying its recorded memory-op trace through the
// same detector. Both sub-benchmarks produce the identical race set and
// detector counters; the replay must be at least an order of magnitude
// faster (the acceptance gate for the record/replay subsystem), and the
// speedup factor is reported as a custom metric on the replay run.
func BenchmarkReplayVsSim(b *testing.B) {
	cfg := config.Default().WithDetector(config.ModeFull4B)
	bench := func() scor.Benchmark { return scor.NewGCOL() }

	runSim := func(b *testing.B) time.Duration {
		start := time.Now()
		d, err := gpu.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := bench().Run(d, nil); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	// Record once; replay iterations reuse the decoded op sequence, which
	// is exactly the record-once-replay-many shape the subsystem exists for.
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf, tracefile.NewHeader(bench().Name(), nil, cfg))
	if err != nil {
		b.Fatal(err)
	}
	d, err := gpu.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d.SetOpSink(tw)
	if err := bench().Run(d, nil); err != nil {
		b.Fatal(err)
	}
	if err := tw.Close(); err != nil {
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

	runReplay := func(b *testing.B) time.Duration {
		start := time.Now()
		sc, err := replay.NewScoRD(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := replay.RunOps(tr.Header(), ops, sc); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}

	var simTotal, replayTotal time.Duration
	var simN, replayN int
	b.Run("sim", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			simTotal += runSim(b)
			simN++
		}
	})
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replayTotal += runReplay(b)
			replayN++
		}
		if simN > 0 && replayTotal > 0 {
			speedup := (simTotal.Seconds() / float64(simN)) /
				(replayTotal.Seconds() / float64(replayN))
			b.ReportMetric(speedup, "sim/replay-speedup")
		}
		b.ReportMetric(float64(len(ops)), "trace-ops")
	})
}

// BenchmarkFig11_Sensitivity regenerates Figure 11: ScoRD's slowdown under
// constrained, default, and generous memory subsystems.
func BenchmarkFig11_Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f11, err := harness.RunFig11(opts())
		if err != nil {
			b.Fatal(err)
		}
		var low, def, high float64
		for _, r := range f11.Rows {
			low += r.Low
			def += r.Default
			high += r.High
		}
		n := float64(len(f11.Rows))
		b.ReportMetric(low/n, "low-mem-slowdown")
		b.ReportMetric(def/n, "default-slowdown")
		b.ReportMetric(high/n, "high-mem-slowdown")
		if i == 0 {
			b.Logf("\n%s", f11.Render())
		}
	}
}
