// Package detectors models the related GPU race detectors that ScoRD is
// compared against in Table VIII of the paper. Each model is a functional
// tap (core.Checker) on the simulator's access stream with the capability
// profile the paper attributes to it:
//
//	Detector   Fences  Locks  Scoped fences  Scoped atomics
//	LDetector    -       -         -               -
//	HAccRG       Y       Y         -               -
//	Barracuda    Y       Y         Y               -
//	CURD         Y       Y         Y               -
//	ScoRD        Y       Y         Y               Y
//
// The scope-blind models are built by wrapping ScoRD's own detection logic
// and promoting the scopes they cannot see to device scope before the
// logic runs — a scope-blind detector is exactly one that treats every
// synchronization as global. LDetector is a separate snapshot-diff model.
package detectors

import (
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/stats"
)

// model wraps the ScoRD logic with scope promotion.
type model struct {
	name         string
	inner        *core.Detector
	blindFences  bool // treat every fence as device scope
	blindAtomics bool // treat every atomic as device scope
}

// newModel sizes the wrapped detector's metadata for an arena of words
// 4-byte words; it has no modelled timing, so no metadata base either.
func newModel(name string, words int, blindFences, blindAtomics bool) *model {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	return &model{
		name:         name,
		inner:        core.NewDetector(cfg, words, 0, &stats.Stats{}),
		blindFences:  blindFences,
		blindAtomics: blindAtomics,
	}
}

// NewHAccRG models HAccRG (Holey et al., ICPP'13): hardware happens-before
// and lock tracking, but entirely scope-blind. words is the device
// arena's size in 4-byte words (Config.DeviceMemBytes / 4); every access
// the model sees must fall inside it.
func NewHAccRG(words int) core.Checker { return newModel("HAccRG", words, true, true) }

// NewBarracuda models Barracuda (Eizenberg et al., PLDI'17): honors fence
// scopes but ignores atomic scopes. words is as for NewHAccRG.
func NewBarracuda(words int) core.Checker { return newModel("Barracuda", words, false, true) }

// NewCURD models CURD (Peng et al., PLDI'18): the same capability profile
// as Barracuda (it delegates atomics/fences to Barracuda's machinery).
// words is as for NewHAccRG.
func NewCURD(words int) core.Checker { return newModel("CURD", words, false, true) }

func (m *model) Name() string           { return m.name }
func (m *model) OnKernelStart()         { m.inner.ResetForKernel() }
func (m *model) Records() []core.Record { return m.inner.Records() }

func (m *model) OnAccess(a core.Access) {
	if m.blindAtomics && a.Kind == core.KindAtomic {
		a.Scope = core.ScopeDevice
	}
	m.inner.CheckAccess(a)
}

func (m *model) OnFence(block, warp int, scope core.Scope) {
	if m.blindFences {
		scope = core.ScopeDevice
	}
	m.inner.OnFence(block, warp, scope)
}

func (m *model) OnAtomicOp(block, warp int, op core.AtomicOp, addr uint64, scope core.Scope) {
	if m.blindAtomics {
		scope = core.ScopeDevice
	}
	m.inner.OnAtomicOp(block, warp, op, addr, scope)
}

// ldetector models LDetector (Li et al., WODET'14): parallel-region
// snapshot comparison. It sees only stores, flags a location written by
// two different warps in one kernel when the second write changes the
// value (silent stores are invisible to value diffing), and ignores all
// synchronization — fences, atomics and locks alike.
//
// Both maps are made on their first write. A kernel start drops the
// writers map rather than clearing it: clearing costs the capacity the
// largest kernel grew it to, at every launch after it.
type ldetector struct {
	writers map[uint64]ldWrite // this kernel's last writer per address
	records []core.Record
	seen    map[uint64]bool // addresses already reported
}

type ldWrite struct {
	block, warp int
}

// NewLDetector returns the snapshot-diff model.
func NewLDetector() core.Checker { return &ldetector{} }

func (l *ldetector) Name() string { return "LDetector" }

func (l *ldetector) OnKernelStart() { l.writers = nil }

func (l *ldetector) OnAccess(a core.Access) {
	if a.Kind != core.KindStore {
		return // loads and atomics are invisible to snapshot diffing
	}
	w, ok := l.writers[a.Addr]
	if ok && (w.block != a.Block || w.warp != a.Warp) {
		if !l.seen[a.Addr] {
			if l.seen == nil {
				l.seen = make(map[uint64]bool)
			}
			l.seen[a.Addr] = true
			kind := core.RaceMissingDeviceFence
			same := w.block == a.Block
			if same {
				kind = core.RaceMissingBlockFence
			}
			l.records = append(l.records, core.Record{
				Kind:      kind,
				Addr:      a.Addr &^ 3,
				SameBlock: same,
				PrevBlock: w.block & 127,
				PrevWarp:  w.warp & 31,
				CurBlock:  a.Block,
				CurWarp:   a.Warp,
				Site:      a.Site,
				Cycle:     a.Cycle,
				Count:     1,
			})
		}
	}
	if l.writers == nil {
		l.writers = make(map[uint64]ldWrite)
	}
	l.writers[a.Addr] = ldWrite{block: a.Block, warp: a.Warp}
}

func (l *ldetector) OnFence(int, int, core.Scope)                           {}
func (l *ldetector) OnAtomicOp(int, int, core.AtomicOp, uint64, core.Scope) {}
func (l *ldetector) Records() []core.Record                                 { return l.records }

// All returns the four comparison models in Table VIII order, for a
// device arena of words 4-byte words.
func All(words int) []core.Checker {
	return []core.Checker{NewLDetector(), NewHAccRG(words), NewBarracuda(words), NewCURD(words)}
}
