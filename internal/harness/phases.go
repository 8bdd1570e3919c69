package harness

import (
	"fmt"
	"strings"

	"scord/internal/config"
	"scord/internal/gpu"
	"scord/internal/scor"
)

// PhaseRow is one application's cycle-attribution profile under the full
// ScoRD configuration.
type PhaseRow struct {
	App    string
	Cycles uint64 // simulated cycles of the run
	Phases gpu.PhaseAccounts
}

// PhaseProfile is the per-app phase-attribution breakdown: the
// measurement baseline engine-parallelization work is judged against
// (ROADMAP item 1). Byte-deterministic at any Jobs setting.
type PhaseProfile struct {
	Rows []PhaseRow
}

// RunPhaseProfile profiles every suite application (correctly
// synchronized, detector on) and returns where each one's charged cycles
// go.
func RunPhaseProfile(opt Options) (*PhaseProfile, error) { return evaluate(opt, phaseProfile) }

func phaseProfile(p *plan) *PhaseProfile {
	out := &PhaseProfile{}
	for _, b := range scor.Apps() {
		o := p.run("phases/"+b.Name(), b, p.cfg.WithDetector(config.ModeCached), false)
		out.Rows = append(out.Rows, PhaseRow{App: b.Name(), Cycles: o.cycles, Phases: o.phases})
	}
	return out
}

// Render formats the breakdown as one matrix: a share column per phase
// account plus the absolute charged and simulated cycle counts.
func (p *PhaseProfile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cycle attribution by simulator phase (%% of charged cycles)\n")
	fmt.Fprintf(&b, "%-8s %6s %6s %8s %6s %6s %6s %6s %9s %10s %14s %14s\n",
		"App", "issue", "fence", "barrier", "l1", "noc", "l2", "dram", "det-meta", "det-stall",
		"charged", "sim-cycles")
	for _, r := range p.Rows {
		ph := r.Phases
		total := ph.Sum()
		pct := func(v uint64) string {
			if total == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f", 100*float64(v)/float64(total))
		}
		fmt.Fprintf(&b, "%-8s %6s %6s %8s %6s %6s %6s %6s %9s %10s %14d %14d\n",
			r.App, pct(ph.Issue), pct(ph.Fence), pct(ph.Barrier), pct(ph.L1), pct(ph.NOC),
			pct(ph.L2), pct(ph.DRAM), pct(ph.DetectorMeta), pct(ph.DetectorStall),
			total, r.Cycles)
	}
	return b.String()
}

// CSV returns the raw charged-cycle counts per account (not shares), one
// row per application.
func (p *PhaseProfile) CSV() [][]string {
	rows := [][]string{{"app", "issue", "fence", "barrier", "l1", "noc", "l2", "dram",
		"det_meta", "det_stall", "charged", "sim_cycles"}}
	for _, r := range p.Rows {
		ph := r.Phases
		rows = append(rows, []string{r.App,
			fmt.Sprint(ph.Issue), fmt.Sprint(ph.Fence), fmt.Sprint(ph.Barrier),
			fmt.Sprint(ph.L1), fmt.Sprint(ph.NOC), fmt.Sprint(ph.L2), fmt.Sprint(ph.DRAM),
			fmt.Sprint(ph.DetectorMeta), fmt.Sprint(ph.DetectorStall),
			fmt.Sprint(ph.Sum()), fmt.Sprint(r.Cycles)})
	}
	return rows
}
