// Package racepred is a flow-sensitive static race predictor: it drives
// the dataflow abstract interpreter over every kernel launch the suite
// performs, enumerates candidate conflicting operation pairs between
// abstract executors (same-block and cross-block), and classifies each
// surviving pair against the paper's Table IV race taxonomy.
//
// The predictor is calibrated for recall: every race the dynamic
// detector can report on the suite must be covered by a prediction with
// the same benchmark, allocation and kind. Precision is measured at the
// (benchmark, allocation) level and every unconfirmed prediction must
// carry a reviewed justification — the differential-validation test in
// racepred/diffval enforces both directions against live detector runs.
package racepred

import (
	"sort"
	"strings"

	"scord/internal/analysis/dataflow"
	"scord/internal/analysis/framework"
	"scord/internal/core"
)

// Prediction is one predicted race, aggregated over every contributing
// operation pair on one allocation of one benchmark.
type Prediction struct {
	Bench string
	Alloc string
	// Kinds is the set of Table IV race kinds a dynamic run may report
	// for this allocation (a calibrated superset: the detector reports
	// whichever condition fires first).
	Kinds []core.RaceKind
	// Cond is true when every contributing pair executes under an
	// undecided branch (typically an injection switch): the race needs a
	// specific configuration to manifest.
	Cond bool
	// Sites lists source positions of contributing operations.
	Sites []string
}

// Predict interprets every kernel launch of the loaded benchmark
// packages once, classifies each launch's operation pairs, and returns
// the predicted races sorted by (Bench, Alloc).
func Predict(pkgs []*framework.Package) ([]Prediction, error) {
	roots, err := discoverRoots(dataflow.NewWorld(pkgs...), pkgs)
	if err != nil {
		return nil, err
	}
	col := newCollector()
	for _, rt := range roots {
		classifyRoot(col, rt)
	}
	return col.list(), nil
}

// collector merges per-pair emissions into (bench, alloc) predictions.
type collector struct {
	preds map[string]*Prediction
	kinds map[string]map[core.RaceKind]bool
	sites map[string]map[string]bool
}

func newCollector() *collector {
	return &collector{
		preds: map[string]*Prediction{},
		kinds: map[string]map[core.RaceKind]bool{},
		sites: map[string]map[string]bool{},
	}
}

func (c *collector) add(bench string, bases []string, ks []core.RaceKind, cond bool, sites []string) {
	if len(ks) == 0 {
		return
	}
	for _, alloc := range bases {
		key := bench + "\x00" + alloc
		p := c.preds[key]
		if p == nil {
			p = &Prediction{Bench: bench, Alloc: alloc, Cond: true}
			c.preds[key] = p
			c.kinds[key] = map[core.RaceKind]bool{}
			c.sites[key] = map[string]bool{}
		}
		for _, k := range ks {
			c.kinds[key][k] = true
		}
		if !cond {
			p.Cond = false
		}
		for _, s := range sites {
			c.sites[key][s] = true
		}
	}
}

func (c *collector) list() []Prediction {
	var out []Prediction
	for key, p := range c.preds {
		for k := range c.kinds[key] {
			p.Kinds = append(p.Kinds, k)
		}
		sort.Slice(p.Kinds, func(i, j int) bool { return p.Kinds[i] < p.Kinds[j] })
		for s := range c.sites[key] {
			p.Sites = append(p.Sites, s)
		}
		sort.Strings(p.Sites)
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Alloc < out[j].Alloc
	})
	return out
}

// HasKind reports whether the prediction covers a race kind.
func (p Prediction) HasKind(k core.RaceKind) bool {
	for _, pk := range p.Kinds {
		if pk == k {
			return true
		}
	}
	return false
}

// KindsString renders the kind set compactly.
func (p Prediction) KindsString() string {
	var names []string
	for _, k := range p.Kinds {
		names = append(names, k.String())
	}
	return strings.Join(names, ",")
}
