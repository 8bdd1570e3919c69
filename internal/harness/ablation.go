package harness

import (
	"fmt"
	"strings"

	"scord/internal/config"
	"scord/internal/scor"
)

// Ablations quantify ScoRD's design choices beyond the paper's headline
// experiments: the 16:1 software-cache ratio, the detector inbox size, and
// the detector service rate. Each sweep varies one parameter around the
// default and reports the consequences the design section argues about.
// Every point normalizes against each app's one no-detection run under the
// unmodified configuration (plan.go says why the sweep cannot move it).

// slowdown asks for b's ScoRD run under cfg and its no-detection run
// under the evaluation's configuration, labelled <prefix>/<mode>, and
// returns the ScoRD outcome and its cycles normalized to the baseline's.
func (p *plan) slowdown(prefix string, b scor.Benchmark, cfg config.Config) (outcome, float64) {
	off := p.run(fmt.Sprintf("%s/%v", prefix, config.ModeOff), b, p.cfg.WithDetector(config.ModeOff), false)
	cached := p.run(fmt.Sprintf("%s/%v", prefix, config.ModeCached), b, cfg, false)
	return cached, float64(cached.st.Cycles) / float64(off.st.Cycles)
}

// CacheRatioRow is one point of the metadata-cache-ratio sweep.
type CacheRatioRow struct {
	Ratio       int
	OverheadPct float64 // metadata memory overhead
	Slowdown    float64 // geomean slowdown vs no detection
	Caught      int     // of the suite's injected races
	Present     int
	Evictions   uint64 // software-cache tag-mismatch overwrites
}

// AblationCacheRatio sweeps the words-per-entry ratio of the software
// metadata cache. Smaller ratios approach the base design (more memory,
// fewer aliasing misses); larger ratios shrink memory further at growing
// risk of silent false negatives.
type AblationCacheRatio struct {
	Rows []CacheRatioRow
}

// RunAblationCacheRatio measures detection completeness and performance at
// ratios 4, 8, 16 (default), 32 and 64.
func RunAblationCacheRatio(opt Options) (*AblationCacheRatio, error) {
	return evaluate(opt, ablationCacheRatio)
}

func ablationCacheRatio(p *plan) *AblationCacheRatio {
	out := &AblationCacheRatio{}
	for _, ratio := range []int{4, 8, 16, 32, 64} {
		cfg := p.cfg.WithDetector(config.ModeCached)
		cfg.Detector.MetaCacheRatio = ratio
		row := CacheRatioRow{Ratio: ratio, OverheadPct: 200.0 / float64(ratio)}
		var norms []float64
		for _, b := range scor.Apps() {
			prefix := fmt.Sprintf("ablation-ratio/%d/%s", ratio, b.Name())
			detect := p.run(prefix+"/detect", b, cfg, true)
			row.Present += detect.races.Expected
			row.Caught += len(detect.races.Caught)
			row.Evictions += detect.st.MetaCacheEvicts
			_, norm := p.slowdown(prefix, b, cfg)
			norms = append(norms, norm)
		}
		row.Slowdown = geomean(norms)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render formats the sweep.
func (a *AblationCacheRatio) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: software metadata cache ratio (paper default 16:1)\n")
	fmt.Fprintf(&b, "%6s %10s %10s %12s %12s\n", "ratio", "mem-ovhd", "slowdown", "races", "evictions")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%6d %9.1f%% %10.3f %9d/%-2d %12d\n",
			r.Ratio, r.OverheadPct, r.Slowdown, r.Caught, r.Present, r.Evictions)
	}
	return b.String()
}

// InboxRow is one point of the detector-inbox sweep.
type InboxRow struct {
	Inbox    int
	Slowdown float64
	Stalls   uint64
}

// AblationInbox sweeps the detector inbox (the buffer that decouples L1
// hits from detection; Section IV argues it hides most L1-hit latency).
type AblationInbox struct {
	Rows []InboxRow
}

// RunAblationInbox measures slowdown and L1-hit stalls for inbox sizes
// 1, 4, 12 (default) and 64.
func RunAblationInbox(opt Options) (*AblationInbox, error) { return evaluate(opt, ablationInbox) }

func ablationInbox(p *plan) *AblationInbox {
	out := &AblationInbox{}
	for _, inbox := range []int{1, 4, 12, 64} {
		cfg := p.cfg.WithDetector(config.ModeCached)
		cfg.Detector.InboxSize = inbox
		row := InboxRow{Inbox: inbox}
		var norms []float64
		for _, b := range scor.Apps() {
			cached, norm := p.slowdown(fmt.Sprintf("ablation-inbox/%d/%s", inbox, b.Name()), b, cfg)
			norms = append(norms, norm)
			row.Stalls += cached.st.DetectorStalls
		}
		row.Slowdown = geomean(norms)
		out.Rows = append(out.Rows, row)
	}
	return out
}

// Render formats the sweep.
func (a *AblationInbox) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: detector inbox size (L1-hit decoupling buffer)\n")
	fmt.Fprintf(&b, "%6s %10s %12s\n", "inbox", "slowdown", "stall-cycles")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%6d %10.3f %12d\n", r.Inbox, r.Slowdown, r.Stalls)
	}
	return b.String()
}

// RateRow is one point of the detector service-rate sweep.
type RateRow struct {
	Rate     int
	Slowdown float64
}

// AblationRate sweeps the detector's aggregate checks-per-cycle (the
// degree of replication across L2 slices).
type AblationRate struct {
	Rows []RateRow
}

// RunAblationRate measures slowdown at service rates 1, 2, 4 (default), 8
// and 16 checks per cycle.
func RunAblationRate(opt Options) (*AblationRate, error) { return evaluate(opt, ablationRate) }

func ablationRate(p *plan) *AblationRate {
	out := &AblationRate{}
	for _, rate := range []int{1, 2, 4, 8, 16} {
		cfg := p.cfg.WithDetector(config.ModeCached)
		cfg.Detector.ChecksPerCycle = rate
		var norms []float64
		for _, b := range scor.Apps() {
			_, norm := p.slowdown(fmt.Sprintf("ablation-rate/%d/%s", rate, b.Name()), b, cfg)
			norms = append(norms, norm)
		}
		out.Rows = append(out.Rows, RateRow{Rate: rate, Slowdown: geomean(norms)})
	}
	return out
}

// Render formats the sweep.
func (a *AblationRate) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: detector service rate (checks per cycle)\n")
	fmt.Fprintf(&b, "%6s %10s\n", "rate", "slowdown")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%6d %10.3f\n", r.Rate, r.Slowdown)
	}
	return b.String()
}
