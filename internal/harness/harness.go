// Package harness regenerates every table and figure of the ScoRD paper's
// evaluation (Section V): Table VI (races caught), Table VII (false
// positives vs. metadata granularity), Table VIII (detector capability
// matrix), Figure 8 (performance), Figure 9 (DRAM accesses), Figure 10
// (overhead attribution), and Figure 11 (memory-subsystem sensitivity).
//
// Absolute cycle counts belong to this repository's simulator, not
// GPGPU-Sim; the quantities of interest are the normalized shapes.
//
// Every experiment declares its device simulations as a flat list of
// independent jobs executed by the bounded worker pool in runner.go;
// results are collected in job-submission order, so output is identical
// at any worker count.
package harness

import (
	"fmt"
	"strings"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/obs"
	"scord/internal/scor"
	"scord/internal/scor/micro"
	"scord/internal/stats"
)

// DefaultSampleEvery is the metric-sampling interval, in simulated cycles,
// used when Options.Samples is set without an explicit SampleEvery.
const DefaultSampleEvery = 10_000

// Options parameterizes a harness run.
type Options struct {
	// Base hardware configuration (detector settings are overridden per
	// experiment). Defaults to config.Default().
	Config *config.Config

	// Jobs bounds the worker goroutines executing independent simulations;
	// 0 means runtime.GOMAXPROCS(0). Tests pin Jobs to 1 for a strictly
	// sequential run. Each simulation engine is single-threaded either
	// way — parallelism exists only across device instances.
	Jobs int

	// Report, when non-nil, accumulates per-job wall-clock and aggregate
	// worker utilization for every experiment run with these Options.
	Report *Report

	// Telemetry, when non-nil, receives live run progress: job lifecycle
	// counts from the runner and per-job simulated-cycle gauges from the
	// devices. Purely observational — results never depend on it.
	Telemetry *obs.RunTelemetry

	// Samples, when non-nil, attaches a cycle-domain sampler to every
	// device the harness builds; each job emits per-interval metric deltas
	// into the collector under its own label, so the serialized output is
	// identical at any worker count.
	Samples *obs.Collector

	// SampleEvery is the sampling interval in simulated cycles; 0 means
	// DefaultSampleEvery. Only meaningful with Samples set.
	SampleEvery uint64

	// Cancel, when non-nil and closed, stops the runner from dispatching
	// further jobs: in-flight simulations drain to completion and the run
	// returns an error wrapping ErrCanceled. The CLIs close it on
	// SIGINT/SIGTERM so an interrupted evaluation stops accepting work,
	// drains its workers, and exits non-zero instead of dying mid-write.
	Cancel <-chan struct{}
}

// observe attaches the configured observers to a freshly built device and
// returns a flush function to call once the job's simulation is done (it
// emits the sampler's final partial interval). The sampler and the
// telemetry cycle gauge are both probes, ticked from one probe list.
// With no observers configured both the attach and the flush are no-ops
// and the device's hot path keeps its detached nil-checks.
func (o Options) observe(d *gpu.Device, label string) func() {
	var s *obs.Sampler
	var ps probes
	if o.Samples != nil {
		every := o.SampleEvery
		if every == 0 {
			every = DefaultSampleEvery
		}
		s = obs.NewSampler(d, every, o.Samples.Series(label))
		ps = append(ps, s)
	}
	if o.Telemetry != nil {
		ps = append(ps, o.Telemetry.JobQueued(label))
	}
	if len(ps) > 0 {
		d.SetProbe(ps)
	}
	return func() {
		if s != nil {
			s.Flush(d.Cycles())
		}
	}
}

// probes ticks each of a device's probes in turn.
type probes []gpu.Probe

func (ps probes) Tick(now uint64) {
	for _, p := range ps {
		p.Tick(now)
	}
}

func (o Options) cfg() config.Config {
	if o.Config != nil {
		return *o.Config
	}
	return config.Default()
}

// runApp executes one benchmark under the given detector mode and returns
// the device (for stats and race records). label identifies the job to the
// observers configured in opt.
func runApp(opt Options, cfg config.Config, label string, b scor.Benchmark, mode config.DetectorMode, active []string) (*gpu.Device, error) {
	d, err := gpu.New(cfg.WithDetector(mode))
	if err != nil {
		return nil, err
	}
	flush := opt.observe(d, label)
	defer flush()
	if err := b.Run(d, active); err != nil {
		return nil, fmt.Errorf("%s [%v/%v]: %w", b.Name(), mode, active, err)
	}
	return d, nil
}

// app returns a fresh instance of the i-th suite application. Jobs build
// their own benchmark instances so concurrent workers never share one.
func app(i int) scor.Benchmark { return scor.Apps()[i] }

// ---------------------------------------------------------------------------
// Table VI — races caught by the base design and by ScoRD.
// ---------------------------------------------------------------------------

// Table6Row is one workload row of Table VI.
type Table6Row struct {
	Workload string
	Present  int // unique races in the configuration
	Base     int // caught by the base design (full 4B metadata)
	ScoRD    int // caught by ScoRD (software-cached metadata)
}

// Table6 is the full experiment result.
type Table6 struct {
	Rows  []Table6Row
	Total Table6Row
}

// RunTable6 runs every application with all injections active and all 18
// racey microbenchmarks, under both metadata designs.
func RunTable6(opt Options) (*Table6, error) {
	cfg := opt.cfg()
	apps := scor.Apps()
	var racey []int
	for i, m := range micro.All() {
		if m.Racey() {
			racey = append(racey, i)
		}
	}

	type cell struct{ present, caught int }
	modes := []config.DetectorMode{config.ModeFull4B, config.ModeCached}
	cells := make([]cell, (len(apps)+len(racey))*len(modes))
	var sims []Sim
	slot := 0
	addPair := func(name string, fresh func() scor.Benchmark) {
		for _, mode := range modes {
			i, mode := slot, mode
			slot++
			label := fmt.Sprintf("table6/%s/%v", name, mode)
			sims = append(sims, Sim{
				Label: label,
				Run: func() error {
					b := fresh()
					d, err := runApp(opt, cfg, label, b, mode, b.Injections())
					if err != nil {
						return err
					}
					res := scor.MatchRaces(d, b.ExpectedRaces(b.Injections()))
					cells[i] = cell{res.Expected, len(res.Caught)}
					return nil
				},
			})
		}
	}
	for ai, b := range apps {
		ai := ai
		addPair(b.Name(), func() scor.Benchmark { return app(ai) })
	}
	for _, mi := range racey {
		mi := mi
		addPair(micro.All()[mi].Name(), func() scor.Benchmark { return micro.All()[mi] })
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Table6{}
	k := 0
	for _, b := range apps {
		full, cached := cells[k], cells[k+1]
		k += 2
		out.Rows = append(out.Rows, Table6Row{b.Name(), full.present, full.caught, cached.caught})
	}
	mrow := Table6Row{Workload: "Microbenchmarks"}
	for range racey {
		full, cached := cells[k], cells[k+1]
		k += 2
		mrow.Present += full.present
		mrow.Base += full.caught
		mrow.ScoRD += cached.caught
	}
	out.Rows = append(out.Rows, mrow)
	for _, r := range out.Rows {
		out.Total.Present += r.Present
		out.Total.Base += r.Base
		out.Total.ScoRD += r.ScoRD
	}
	out.Total.Workload = "Total"
	return out, nil
}

// Render formats the table like the paper's Table VI.
func (t *Table6) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VI: number of races caught by different configurations\n")
	fmt.Fprintf(&b, "%-16s %8s %18s %8s\n", "Workload", "Present", "Base (no caching)", "ScoRD")
	for _, r := range append(t.Rows, t.Total) {
		fmt.Fprintf(&b, "%-16s %8d %18d %8d\n", r.Workload, r.Present, r.Base, r.ScoRD)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Table VII — false positives vs. metadata tracking granularity.
// ---------------------------------------------------------------------------

// Table7Row is one workload row of Table VII.
type Table7Row struct {
	Workload                 string
	FP4B, FP8B, FP16B, ScoRD int
}

// Table7 is the full experiment result.
type Table7 struct {
	Rows []Table7Row
}

// RunTable7 runs every application correctly synchronized under each
// tracking granularity and counts distinct false-positive reports.
func RunTable7(opt Options) (*Table7, error) {
	cfg := opt.cfg()
	apps := scor.Apps()
	modes := []config.DetectorMode{
		config.ModeFull4B, config.ModeGran8B, config.ModeGran16B, config.ModeCached,
	}
	fps := make([]int, len(apps)*len(modes))
	var sims []Sim
	for ai, b := range apps {
		for mi, mode := range modes {
			ai, mode := ai, mode
			i := ai*len(modes) + mi
			label := fmt.Sprintf("table7/%s/%v", b.Name(), mode)
			sims = append(sims, Sim{
				Label: label,
				Run: func() error {
					d, err := runApp(opt, cfg, label, app(ai), mode, nil)
					if err != nil {
						return err
					}
					// Count false reports (occurrences): the number of times
					// the detector would have interrupted a clean program.
					// Coarser granularity aliases more accesses into shared
					// entries, so this grows with granularity as in the paper.
					fp := 0
					for _, r := range scor.MatchRaces(d, nil).FalsePos {
						fp += r.Count
					}
					fps[i] = fp
					return nil
				},
			})
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Table7{}
	for ai, b := range apps {
		f := fps[ai*len(modes):]
		out.Rows = append(out.Rows, Table7Row{
			Workload: b.Name(), FP4B: f[0], FP8B: f[1], FP16B: f[2], ScoRD: f[3],
		})
	}
	return out, nil
}

// Render formats the table like the paper's Table VII.
func (t *Table7) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VII: false positives with varying metadata granularity\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "Workload", "4-byte", "8-byte", "16-byte", "ScoRD")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s %8s\n", "overhead", "200%", "100%", "50%", "12.5%")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %8d %8d %8d %8d\n", r.Workload, r.FP4B, r.FP8B, r.FP16B, r.ScoRD)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — execution cycles normalized to no race detection.
// ---------------------------------------------------------------------------

// Fig8Row is one application's pair of bars.
type Fig8Row struct {
	App       string
	BaseNorm  float64 // base design (no metadata caching)
	ScoRDNorm float64 // ScoRD
}

// Fig8 is the full experiment result.
type Fig8 struct {
	Rows     []Fig8Row
	GeoBase  float64
	GeoScoRD float64
}

// RunFig8 measures execution cycles for every application under no
// detection, the base design, and ScoRD.
func RunFig8(opt Options) (*Fig8, error) {
	cfg := opt.cfg()
	apps := scor.Apps()
	modes := []config.DetectorMode{config.ModeOff, config.ModeFull4B, config.ModeCached}
	cyc := make([]uint64, len(apps)*len(modes))
	var sims []Sim
	for ai, b := range apps {
		for mi, mode := range modes {
			ai, mode := ai, mode
			i := ai*len(modes) + mi
			label := fmt.Sprintf("fig8/%s/%v", b.Name(), mode)
			sims = append(sims, Sim{
				Label: label,
				Run: func() error {
					d, err := runApp(opt, cfg, label, app(ai), mode, nil)
					if err != nil {
						return err
					}
					cyc[i] = d.Stats().Cycles
					return nil
				},
			})
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Fig8{}
	var base, scord []float64
	for ai, b := range apps {
		c := cyc[ai*len(modes):]
		r := Fig8Row{
			App:       b.Name(),
			BaseNorm:  float64(c[1]) / float64(c[0]),
			ScoRDNorm: float64(c[2]) / float64(c[0]),
		}
		out.Rows = append(out.Rows, r)
		base = append(base, r.BaseNorm)
		scord = append(scord, r.ScoRDNorm)
	}
	out.GeoBase = geomean(base)
	out.GeoScoRD = geomean(scord)
	return out, nil
}

// Render formats the series behind Figure 8.
func (f *Fig8) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: execution cycles normalized to no race detection\n")
	fmt.Fprintf(&b, "%-10s %14s %10s\n", "App", "Base(no-cache)", "ScoRD")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %14.3f %10.3f\n", r.App, r.BaseNorm, r.ScoRDNorm)
	}
	fmt.Fprintf(&b, "%-10s %14.3f %10.3f\n", "geomean", f.GeoBase, f.GeoScoRD)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9 — DRAM accesses normalized, split metadata vs. data.
// ---------------------------------------------------------------------------

// Fig9Row is one application's pair of stacked bars.
type Fig9Row struct {
	App                  string
	BaseData, BaseMeta   float64 // base design, normalized to no-detection total
	ScoRDData, ScoRDMeta float64 // ScoRD, normalized likewise
}

// Fig9 is the full experiment result.
type Fig9 struct {
	Rows []Fig9Row
}

// RunFig9 measures DRAM transactions under each design.
func RunFig9(opt Options) (*Fig9, error) {
	cfg := opt.cfg()
	apps := scor.Apps()
	modes := []config.DetectorMode{config.ModeOff, config.ModeFull4B, config.ModeCached}
	st := make([]*stats.Stats, len(apps)*len(modes))
	var sims []Sim
	for ai, b := range apps {
		for mi, mode := range modes {
			ai, mode := ai, mode
			i := ai*len(modes) + mi
			label := fmt.Sprintf("fig9/%s/%v", b.Name(), mode)
			sims = append(sims, Sim{
				Label: label,
				Run: func() error {
					d, err := runApp(opt, cfg, label, app(ai), mode, nil)
					if err != nil {
						return err
					}
					st[i] = d.Stats()
					return nil
				},
			})
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Fig9{}
	for ai, b := range apps {
		s := st[ai*len(modes):]
		norm := float64(s[0].DRAMAccesses())
		out.Rows = append(out.Rows, Fig9Row{
			App:       b.Name(),
			BaseData:  float64(s[1].DRAMDataAccesses) / norm,
			BaseMeta:  float64(s[1].DRAMMetaAccesses) / norm,
			ScoRDData: float64(s[2].DRAMDataAccesses) / norm,
			ScoRDMeta: float64(s[2].DRAMMetaAccesses) / norm,
		})
	}
	return out, nil
}

// Render formats the series behind Figure 9.
func (f *Fig9) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: DRAM accesses normalized to no race detection (data+metadata)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s %10s | %10s %10s %10s\n",
		"App", "base.data", "base.meta", "base.tot", "scord.data", "scord.meta", "scord.tot")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %10.3f %10.3f %10.3f | %10.3f %10.3f %10.3f\n",
			r.App, r.BaseData, r.BaseMeta, r.BaseData+r.BaseMeta,
			r.ScoRDData, r.ScoRDMeta, r.ScoRDData+r.ScoRDMeta)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 10 — overhead attribution: LHD vs NOC vs MD.
// ---------------------------------------------------------------------------

// Fig10Row is one application's attribution shares (they sum to 1 when any
// overhead exists).
type Fig10Row struct {
	App          string
	LHD, NOC, MD float64
}

// Fig10 is the full experiment result.
type Fig10 struct {
	Rows                  []Fig10Row
	AvgLHD, AvgNOC, AvgMD float64
}

// RunFig10 disables each timing source in turn and attributes ScoRD's
// overhead to the three mechanisms by the uplift each removal produces.
func RunFig10(opt Options) (*Fig10, error) {
	cfg := opt.cfg()
	apps := scor.Apps()
	variants := []struct {
		name string
		mut  func(*config.Detector)
	}{
		{"full", nil},
		{"no-lhd", func(dc *config.Detector) { dc.DisableLHDTiming = true }},
		{"no-noc", func(dc *config.Detector) { dc.DisableNOCTiming = true }},
		{"no-md", func(dc *config.Detector) { dc.DisableMDTiming = true }},
	}
	cyc := make([]uint64, len(apps)*len(variants))
	var sims []Sim
	for ai, b := range apps {
		for vi, v := range variants {
			ai, v := ai, v
			i := ai*len(variants) + vi
			label := fmt.Sprintf("fig10/%s/%s", b.Name(), v.name)
			sims = append(sims, Sim{
				Label: label,
				Run: func() error {
					c := cfg.WithDetector(config.ModeCached)
					if v.mut != nil {
						v.mut(&c.Detector)
					}
					d, err := gpu.New(c)
					if err != nil {
						return err
					}
					flush := opt.observe(d, label)
					defer flush()
					if err := app(ai).Run(d, nil); err != nil {
						return err
					}
					cyc[i] = d.Stats().Cycles
					return nil
				},
			})
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Fig10{}
	for ai, b := range apps {
		c := cyc[ai*len(variants):]
		full := c[0]
		up := func(t uint64) float64 {
			if full > t {
				return float64(full - t)
			}
			return 0
		}
		l, n, m := up(c[1]), up(c[2]), up(c[3])
		sum := l + n + m
		row := Fig10Row{App: b.Name()}
		if sum > 0 {
			row.LHD, row.NOC, row.MD = l/sum, n/sum, m/sum
		}
		out.Rows = append(out.Rows, row)
	}
	for _, r := range out.Rows {
		out.AvgLHD += r.LHD
		out.AvgNOC += r.NOC
		out.AvgMD += r.MD
	}
	n := float64(len(out.Rows))
	out.AvgLHD /= n
	out.AvgNOC /= n
	out.AvgMD /= n
	return out, nil
}

// Render formats the series behind Figure 10.
func (f *Fig10) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: relative contribution of overhead sources (share of total)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "App", "LHD", "NOC", "MD")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", r.App, 100*r.LHD, 100*r.NOC, 100*r.MD)
	}
	fmt.Fprintf(&b, "%-10s %7.1f%% %7.1f%% %7.1f%%\n", "average", 100*f.AvgLHD, 100*f.AvgNOC, 100*f.AvgMD)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 11 — sensitivity to L2 capacity and DRAM bandwidth.
// ---------------------------------------------------------------------------

// Fig11Row is one application's three bars (ScoRD cycles normalized to no
// detection under the same memory configuration).
type Fig11Row struct {
	App                string
	Low, Default, High float64
}

// Fig11 is the full experiment result.
type Fig11 struct {
	Rows []Fig11Row
}

// RunFig11 sweeps the three memory-subsystem presets.
func RunFig11(opt Options) (*Fig11, error) {
	apps := scor.Apps()
	presets := []struct {
		name string
		cfg  config.Config
	}{
		{"low", config.LowMemory()},
		{"default", opt.cfg()},
		{"high", config.HighMemory()},
	}
	modes := []config.DetectorMode{config.ModeOff, config.ModeCached}
	cyc := make([]uint64, len(apps)*len(presets)*len(modes))
	var sims []Sim
	for ai, b := range apps {
		for pi, p := range presets {
			for mi, mode := range modes {
				ai, p, mode := ai, p, mode
				i := (ai*len(presets)+pi)*len(modes) + mi
				label := fmt.Sprintf("fig11/%s/%s/%v", b.Name(), p.name, mode)
				sims = append(sims, Sim{
					Label: label,
					Run: func() error {
						d, err := runApp(opt, p.cfg, label, app(ai), mode, nil)
						if err != nil {
							return err
						}
						cyc[i] = d.Stats().Cycles
						return nil
					},
				})
			}
		}
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}

	out := &Fig11{}
	for ai, b := range apps {
		row := Fig11Row{App: b.Name()}
		for pi := range presets {
			c := cyc[(ai*len(presets)+pi)*len(modes):]
			norm := float64(c[1]) / float64(c[0])
			switch pi {
			case 0:
				row.Low = norm
			case 1:
				row.Default = norm
			case 2:
				row.High = norm
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the series behind Figure 11.
func (f *Fig11) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: ScoRD slowdown vs memory resources (normalized per config)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", "App", "low", "default", "high")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%-10s %8.3f %8.3f %8.3f\n", r.App, r.Low, r.Default, r.High)
	}
	return b.String()
}
