package harness

import (
	"fmt"
	"strings"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/detectors"
	"scord/internal/gpu"
	"scord/internal/mem"
	"scord/internal/scor"
	"scord/internal/scor/micro"
)

// Table8Row is one detector's empirically measured capability profile:
// how many racey microbenchmarks of each class it catches.
type Table8Row struct {
	Detector       string
	Fences         Capability // plain (unscoped) fence races
	Locks          Capability // lock/unlock races
	ScopedFences   Capability // races from insufficient fence scope
	ScopedAtomics  Capability // races from insufficient atomic scope
	FalsePositives int        // reports on the 14 non-racey microbenchmarks
}

// Capability counts caught vs present races of one class.
type Capability struct{ Caught, Present int }

func (c Capability) String() string {
	if c.Present == 0 {
		return "-"
	}
	if c.Caught == c.Present {
		return "yes"
	}
	if c.Caught == 0 {
		return "no"
	}
	return fmt.Sprintf("%d/%d", c.Caught, c.Present)
}

// Table8 is the empirical regeneration of the paper's Table VIII: instead
// of citing each related work's documentation, the comparison models run
// on the same 32 microbenchmarks and the matrix reports what each actually
// catches.
type Table8 struct {
	Rows []Table8Row
}

// classOf buckets a racey microbenchmark into a Table VIII column using
// its declared race class. Scoped lock bugs are detected through the
// scoped-atomic condition on the lock variable, so they score in the
// scoped-atomics column.
func classOf(m *micro.Micro) string {
	return m.Class()
}

// table8Detectors is the row order of the capability matrix.
var table8Detectors = []string{"LDetector", "HAccRG", "Barracuda", "CURD", "ScoRD"}

// t8verdict is one detector's outcome on one microbenchmark: did it
// catch every expected race, and did it report anything at all (the
// false-positive signal on clean micros).
type t8verdict struct{ caughtAll, anyRecords bool }

// scoreRecords reduces one detector's race records on one micro to a
// verdict against the micro's expected-race specs.
func scoreRecords(m *mem.Memory, recs []core.Record, specs []scor.RaceSpec) t8verdict {
	res := scor.MatchRecords(m, recs, specs)
	return t8verdict{caughtAll: len(res.Missed) == 0, anyRecords: res.AllRecords > 0}
}

// assembleTable8 aggregates per-micro verdicts into the capability
// matrix. It is shared by the live path (RunTable8) and the replay path
// (RunTable8Replay), which must produce identical tables from identical
// verdicts.
func assembleTable8(micros []*micro.Micro, verdicts []map[string]t8verdict) *Table8 {
	caught := map[string]map[string]*Capability{}
	fps := map[string]int{}
	for _, n := range table8Detectors {
		caught[n] = map[string]*Capability{}
	}
	bump := func(det, class string, present, hit bool) {
		c := caught[det][class]
		if c == nil {
			c = &Capability{}
			caught[det][class] = c
		}
		if present {
			c.Present++
		}
		if hit {
			c.Caught++
		}
	}
	for mi, m := range micros {
		for _, det := range table8Detectors {
			v := verdicts[mi][det]
			if m.Racey() {
				bump(det, classOf(m), true, v.caughtAll)
			} else if v.anyRecords {
				fps[det]++
			}
		}
	}

	out := &Table8{}
	get := func(det, class string) Capability {
		if c := caught[det][class]; c != nil {
			return *c
		}
		return Capability{}
	}
	for _, n := range table8Detectors {
		out.Rows = append(out.Rows, Table8Row{
			Detector:       n,
			Fences:         get(n, "fences"),
			Locks:          get(n, "locks"),
			ScopedFences:   get(n, "scoped-fences"),
			ScopedAtomics:  get(n, "scoped-atomics"),
			FalsePositives: fps[n],
		})
	}
	return out
}

// RunTable8 runs every microbenchmark once with the four comparison models
// attached as functional checkers and ScoRD as the real detector, then
// scores each detector per race class. Each microbenchmark is one
// independent job (its own device, its own model instances); the matrix is
// aggregated sequentially from the per-micro verdicts.
func RunTable8(opt Options) (*Table8, error) {
	cfg := opt.cfg()
	micros := micro.All()
	verdicts := make([]map[string]t8verdict, len(micros))
	var sims []Sim
	for mi, m := range micros {
		mi := mi
		label := "table8/" + m.Name()
		sims = append(sims, Sim{
			Label: label,
			Run: func() error {
				m := micro.All()[mi]
				d, err := gpu.New(cfg.WithDetector(config.ModeFull4B))
				if err != nil {
					return err
				}
				flush := opt.observe(d, label)
				defer flush()
				models := detectors.All(d.Mem().Words())
				for _, mod := range models {
					d.AddChecker(mod)
				}
				if err := m.Run(d, nil); err != nil {
					return fmt.Errorf("micro %s: %w", m.Name(), err)
				}
				specs := m.ExpectedRaces(nil)
				v := make(map[string]t8verdict, len(models)+1)
				for _, mod := range models {
					v[mod.Name()] = scoreRecords(d.Mem(), mod.Records(), specs)
				}
				v["ScoRD"] = scoreRecords(d.Mem(), d.Races(), specs)
				verdicts[mi] = v
				return nil
			},
		})
	}
	if err := runAll(opt, sims); err != nil {
		return nil, err
	}
	return assembleTable8(micros, verdicts), nil
}

// Render formats the matrix like the paper's Table VIII.
func (t *Table8) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table VIII: detector support matrix (measured on the 32 microbenchmarks)\n")
	fmt.Fprintf(&b, "%-10s %8s %8s %14s %15s %8s\n",
		"Detector", "Fences", "Locks", "Scoped fences", "Scoped atomics", "FPs")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %8s %8s %14s %15s %8d\n",
			r.Detector, r.Fences, r.Locks, r.ScopedFences, r.ScopedAtomics, r.FalsePositives)
	}
	return b.String()
}
