// Package harness regenerates every table and figure of the ScoRD paper's
// evaluation (Section V): Table VI (races caught), Table VII (false
// positives vs. metadata granularity), Table VIII (detector capability
// matrix), Figure 8 (performance), Figure 9 (DRAM accesses), Figure 10
// (overhead attribution), and Figure 11 (memory-subsystem sensitivity).
//
// Absolute cycle counts belong to this repository's simulator, not
// GPGPU-Sim; the quantities of interest are the normalized shapes.
//
// Every experiment asks a run plan (plan.go) for the outcomes of the
// device simulations it needs. Each distinct simulation runs once, on the
// bounded worker pool in runner.go, and an experiment reads the outcomes
// back in the order it asked for them, so output is identical at any
// worker count.
package harness

import (
	"fmt"
	"strings"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/obs"
	"scord/internal/scor"
	"scord/internal/scor/micro"
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
func RunTable6(opt Options) (*Table6, error) { return evaluate(opt, table6) }

func table6(p *plan) *Table6 {
	row := func(b scor.Benchmark) Table6Row {
		caught := func(mode config.DetectorMode) scor.MatchResult {
			label := fmt.Sprintf("table6/%s/%v", b.Name(), mode)
			return p.run(label, b, p.cfg.WithDetector(mode), true).races
		}
		full, cached := caught(config.ModeFull4B), caught(config.ModeCached)
		return Table6Row{b.Name(), full.Expected, len(full.Caught), len(cached.Caught)}
	}
	out := &Table6{}
	for _, b := range scor.Apps() {
		out.Rows = append(out.Rows, row(b))
	}
	mrow := Table6Row{Workload: "Microbenchmarks"}
	for _, m := range micro.All() {
		if m.Racey() {
			r := row(m)
			mrow.Present += r.Present
			mrow.Base += r.Base
			mrow.ScoRD += r.ScoRD
		}
	}
	out.Rows = append(out.Rows, mrow)
	for _, r := range out.Rows {
		out.Total.Present += r.Present
		out.Total.Base += r.Base
		out.Total.ScoRD += r.ScoRD
	}
	out.Total.Workload = "Total"
	return out
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
func RunTable7(opt Options) (*Table7, error) { return evaluate(opt, table7) }

func table7(p *plan) *Table7 {
	out := &Table7{}
	for _, b := range scor.Apps() {
		var fps [4]int
		for mi, mode := range []config.DetectorMode{
			config.ModeFull4B, config.ModeGran8B, config.ModeGran16B, config.ModeCached,
		} {
			label := fmt.Sprintf("table7/%s/%v", b.Name(), mode)
			// Count false reports (occurrences): the number of times the
			// detector would have interrupted a clean program. Coarser
			// granularity aliases more accesses into shared entries, so
			// this grows with granularity as in the paper.
			for _, r := range p.run(label, b, p.cfg.WithDetector(mode), false).races.FalsePos {
				fps[mi] += r.Count
			}
		}
		out.Rows = append(out.Rows, Table7Row{
			Workload: b.Name(), FP4B: fps[0], FP8B: fps[1], FP16B: fps[2], ScoRD: fps[3],
		})
	}
	return out
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
func RunFig8(opt Options) (*Fig8, error) { return evaluate(opt, fig8) }

// fig8Modes are the three designs Figures 8 and 9 compare, baseline first.
var fig8Modes = [3]config.DetectorMode{config.ModeOff, config.ModeFull4B, config.ModeCached}

// designs returns b's outcomes under fig8Modes, asked for under the
// experiment's labels.
func (p *plan) designs(exp string, b scor.Benchmark) (o [3]outcome) {
	for mi, mode := range fig8Modes {
		o[mi] = p.run(fmt.Sprintf("%s/%s/%v", exp, b.Name(), mode), b, p.cfg.WithDetector(mode), false)
	}
	return o
}

func fig8(p *plan) *Fig8 {
	out := &Fig8{}
	var base, scord []float64
	for _, b := range scor.Apps() {
		o := p.designs("fig8", b)
		off := float64(o[0].st.Cycles)
		r := Fig8Row{
			App:       b.Name(),
			BaseNorm:  float64(o[1].st.Cycles) / off,
			ScoRDNorm: float64(o[2].st.Cycles) / off,
		}
		out.Rows = append(out.Rows, r)
		base = append(base, r.BaseNorm)
		scord = append(scord, r.ScoRDNorm)
	}
	out.GeoBase = geomean(base)
	out.GeoScoRD = geomean(scord)
	return out
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
func RunFig9(opt Options) (*Fig9, error) { return evaluate(opt, fig9) }

func fig9(p *plan) *Fig9 {
	out := &Fig9{}
	for _, b := range scor.Apps() {
		o := p.designs("fig9", b)
		norm := float64(o[0].st.DRAMAccesses())
		out.Rows = append(out.Rows, Fig9Row{
			App:       b.Name(),
			BaseData:  float64(o[1].st.DRAMDataAccesses) / norm,
			BaseMeta:  float64(o[1].st.DRAMMetaAccesses) / norm,
			ScoRDData: float64(o[2].st.DRAMDataAccesses) / norm,
			ScoRDMeta: float64(o[2].st.DRAMMetaAccesses) / norm,
		})
	}
	return out
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
func RunFig10(opt Options) (*Fig10, error) { return evaluate(opt, fig10) }

func fig10(p *plan) *Fig10 {
	variants := []struct {
		name string
		mut  func(*config.Detector)
	}{
		{"full", func(*config.Detector) {}},
		{"no-lhd", func(dc *config.Detector) { dc.DisableLHDTiming = true }},
		{"no-noc", func(dc *config.Detector) { dc.DisableNOCTiming = true }},
		{"no-md", func(dc *config.Detector) { dc.DisableMDTiming = true }},
	}
	out := &Fig10{}
	for _, b := range scor.Apps() {
		var c [4]uint64
		for vi, v := range variants {
			cfg := p.cfg.WithDetector(config.ModeCached)
			v.mut(&cfg.Detector)
			c[vi] = p.run(fmt.Sprintf("fig10/%s/%s", b.Name(), v.name), b, cfg, false).st.Cycles
		}
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
	return out
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

// RunFig11 sweeps the three memory-subsystem presets. Each preset sets
// only the L2 capacity, the L2 banks and the DRAM channels of the
// evaluation's configuration, so all three columns share its seed.
func RunFig11(opt Options) (*Fig11, error) { return evaluate(opt, fig11) }

func fig11(p *plan) *Fig11 {
	presets := []struct {
		name string
		mem  config.Config
	}{
		{"low", config.LowMemory()},
		{"default", p.cfg},
		{"high", config.HighMemory()},
	}
	out := &Fig11{}
	for _, b := range scor.Apps() {
		var norm [3]float64
		for pi, pr := range presets {
			cfg := p.cfg
			cfg.L2Size, cfg.L2Banks, cfg.MemChannels = pr.mem.L2Size, pr.mem.L2Banks, pr.mem.MemChannels
			var cyc [2]float64
			for mi, mode := range []config.DetectorMode{config.ModeOff, config.ModeCached} {
				label := fmt.Sprintf("fig11/%s/%s/%v", b.Name(), pr.name, mode)
				cyc[mi] = float64(p.run(label, b, cfg.WithDetector(mode), false).st.Cycles)
			}
			norm[pi] = cyc[1] / cyc[0]
		}
		out.Rows = append(out.Rows, Fig11Row{App: b.Name(), Low: norm[0], Default: norm[1], High: norm[2]})
	}
	return out
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
