package harness

import (
	"fmt"
	"io"
	"strings"

	"scord/internal/analysis/fix"
	"scord/internal/analysis/repair"
)

// This file runs the repair synthesizer (internal/analysis/repair) over
// the whole injected-bug suite on the harness worker pool: every app
// injection (26 single-injection configurations) and every base micro
// (32) of the suite corpus (suite.go) is recorded, repaired, and
// reported. Each job builds its own device and benchmark instances and
// writes into an order-indexed slot, so the table is byte-identical at
// any Jobs value.

// AppliedFix is one accepted repair with its verification evidence.
type AppliedFix struct {
	Target   string          `json:"target"`
	Fix      fix.Fix         `json:"fix"`
	Evidence repair.Evidence `json:"evidence"`
}

// RepairRow is one benchmark configuration's repair outcome.
type RepairRow struct {
	Bench     string `json:"bench"`
	Injection string `json:"injection,omitempty"`
	// Class is the micro's Table VIII race class ("" for apps and
	// race-free micros).
	Class string `json:"class,omitempty"`
	// ExpectRacey marks configurations that must produce repair targets
	// (injections and racey micros); a race-free configuration producing
	// targets is a regression.
	ExpectRacey bool `json:"expect_racey"`
	// Targets and Repaired count the confirmed races attacked and fixed.
	Targets  int `json:"targets"`
	Repaired int `json:"repaired"`
	// FullyRepaired: the final trace carries no confirmed race.
	FullyRepaired bool         `json:"fully_repaired"`
	Fixes         []AppliedFix `json:"fixes,omitempty"`
	Residual      []string     `json:"residual,omitempty"`
	// OpsTouched and OpsInserted sum the accepted fixes' trace overhead.
	OpsTouched  int `json:"ops_touched"`
	OpsInserted int `json:"ops_inserted"`
}

// RepairTable is the suite-wide repair report.
type RepairTable struct {
	Rows []RepairRow `json:"rows"`
}

// InjectedRepaired counts fully repaired injection configurations.
func (t *RepairTable) InjectedRepaired() (repaired, total int) {
	for _, r := range t.Rows {
		if r.Injection == "" {
			continue
		}
		total++
		if r.FullyRepaired {
			repaired++
		}
	}
	return repaired, total
}

// MicroRepaired counts fully repaired racey micros.
func (t *RepairTable) MicroRepaired() (repaired, total int) {
	for _, r := range t.Rows {
		if r.Injection != "" || !r.ExpectRacey {
			continue
		}
		total++
		if r.FullyRepaired {
			repaired++
		}
	}
	return repaired, total
}

// Regressions counts configurations that must be race-free but produced
// repair targets — the zero-tolerance half of the CI gate.
func (t *RepairTable) Regressions() int {
	n := 0
	for _, r := range t.Rows {
		if !r.ExpectRacey && r.Targets > 0 {
			n++
		}
	}
	return n
}

// ClassCost aggregates accepted-fix overhead per Table VIII race class.
type ClassCost struct {
	Class    string `json:"class"`
	Fixes    int    `json:"fixes"`
	Touched  int    `json:"ops_touched"`
	Inserted int    `json:"ops_inserted"`
}

// classOrder is the Table VIII detector grouping.
var classOrder = []string{"fences", "scoped-fences", "scoped-atomics", "locks"}

// ClassCosts groups the racey micros' fix overhead by race class, in
// Table VIII order.
func (t *RepairTable) ClassCosts() []ClassCost {
	byClass := map[string]*ClassCost{}
	for _, r := range t.Rows {
		if r.Class == "" {
			continue
		}
		c := byClass[r.Class]
		if c == nil {
			c = &ClassCost{Class: r.Class}
			byClass[r.Class] = c
		}
		c.Fixes += len(r.Fixes)
		c.Touched += r.OpsTouched
		c.Inserted += r.OpsInserted
	}
	var out []ClassCost
	for _, cls := range classOrder {
		if c := byClass[cls]; c != nil {
			out = append(out, *c)
		}
	}
	return out
}

func fixKinds(fixes []AppliedFix) string {
	if len(fixes) == 0 {
		return "-"
	}
	var ks []string
	for _, f := range fixes {
		ks = append(ks, string(f.Fix.Kind))
	}
	return strings.Join(ks, ",")
}

// WriteText renders the table deterministically.
func (t *RepairTable) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-36s %-20s %-14s %7s %8s  %s\n",
		"bench", "injection", "class", "targets", "repaired", "fixes")
	for _, r := range t.Rows {
		inj, cls := r.Injection, r.Class
		if inj == "" {
			inj = "-"
		}
		if cls == "" {
			cls = "-"
		}
		fmt.Fprintf(w, "%-36s %-20s %-14s %7d %8d  %s\n",
			r.Bench, inj, cls, r.Targets, r.Repaired, fixKinds(r.Fixes))
		for _, res := range r.Residual {
			fmt.Fprintf(w, "    residual %s\n", res)
		}
	}
	ir, it := t.InjectedRepaired()
	mr, mt := t.MicroRepaired()
	fmt.Fprintf(w, "\ninjected bugs fully repaired: %d/%d\n", ir, it)
	fmt.Fprintf(w, "racey micros fully repaired:  %d/%d\n", mr, mt)
	fmt.Fprintf(w, "race-free regressions:        %d\n", t.Regressions())
	for _, c := range t.ClassCosts() {
		fmt.Fprintf(w, "overhead[%s]: %d fixes, %d ops touched, %d ops inserted\n",
			c.Class, c.Fixes, c.Touched, c.Inserted)
	}
}

// Render returns the text report as a string.
func (t *RepairTable) Render() string {
	var b strings.Builder
	t.WriteText(&b)
	return b.String()
}

func repairRowFromReport(rep *repair.Report) RepairRow {
	row := RepairRow{Bench: rep.Bench, FullyRepaired: rep.FullyRepaired,
		OpsTouched: rep.OpsTouched, OpsInserted: rep.OpsInserted}
	row.Targets = len(rep.Outcomes)
	for _, o := range rep.Outcomes {
		if o.Repaired {
			row.Repaired++
			row.Fixes = append(row.Fixes, AppliedFix{
				Target: o.Target.String(), Fix: *o.Fix, Evidence: *o.Evidence,
			})
		}
	}
	for _, t := range rep.Residual {
		row.Residual = append(row.Residual, t.String())
	}
	return row
}

// repairConfig records and repairs one configuration. An app
// injection gets its app's uninjected run as the sibling regression
// oracle.
func repairConfig(c suiteConfig) (RepairRow, error) {
	h, ops, _, err := c.record()
	if err != nil {
		return RepairRow{}, err
	}
	r := &repair.Repairer{Bench: c.bench, Header: h, Ops: ops}
	if c.kind == appInjected {
		base := suiteConfig{kind: appClean, bench: c.bench, build: c.build}
		bh, bops, _, err := base.record()
		if err != nil {
			return RepairRow{}, err
		}
		r.Siblings = []repair.Sibling{{Label: "base", Header: bh, Ops: bops}}
	}
	rep, err := r.RepairAll()
	if err != nil {
		return RepairRow{}, err
	}
	row := repairRowFromReport(rep)
	row.Injection = c.inj
	row.ExpectRacey = c.racey
	row.Class = c.class
	return row, nil
}

// repairRows repairs the given configurations on the worker pool.
func repairRows(opt Options, configs []suiteConfig) ([]RepairRow, error) {
	return runConfigs(opt, "repair", configs, repairConfig)
}

// RunRepairSuite records and repairs every injected-bug configuration
// (each app's single injections) plus every base micro.
func RunRepairSuite(opt Options) (*RepairTable, error) {
	rows, err := repairRows(opt, injectedAndMicros())
	if err != nil {
		return nil, err
	}
	return &RepairTable{Rows: rows}, nil
}
