// Package detectors models the related GPU race detectors that ScoRD is
// compared against in Table VIII of the paper. Each model observes a run
// only through its scoped memory-op stream: it has replay.Target's method
// set, so it replays a recorded trace or, through replay.Sink, rides a
// live device's op stream. The models have the capability profiles the
// paper attributes to them:
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

// Model wraps the ScoRD logic with scope promotion.
type Model struct {
	name         string
	inner        *core.Detector
	blindFences  bool // treat every fence as device scope
	blindAtomics bool // treat every atomic as device scope
}

// newModel sizes the wrapped detector's metadata for an arena of words
// 4-byte words; it has no modelled timing, so no metadata base either.
func newModel(name string, words int, blindFences, blindAtomics bool) *Model {
	cfg := config.Default().Detector
	cfg.Mode = config.ModeFull4B
	return &Model{
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
func NewHAccRG(words int) *Model { return newModel("HAccRG", words, true, true) }

// NewBarracuda models Barracuda (Eizenberg et al., PLDI'17): honors fence
// scopes but ignores atomic scopes. words is as for NewHAccRG.
func NewBarracuda(words int) *Model { return newModel("Barracuda", words, false, true) }

// NewCURD models CURD (Peng et al., PLDI'18): the same capability profile
// as Barracuda (it delegates atomics/fences to Barracuda's machinery).
// words is as for NewHAccRG.
func NewCURD(words int) *Model { return newModel("CURD", words, false, true) }

func (m *Model) Name() string           { return m.name }
func (m *Model) OnKernelStart()         { m.inner.ResetForKernel() }
func (m *Model) Records() []core.Record { return m.inner.Records() }

// OnAccess checks one lane access, then applies its atomic flavour to the
// lock-inference state. A blind-atomics model promotes the scope of every
// lock-inference update, but the checked access's own scope only when the
// access is an atomic.
func (m *Model) OnAccess(a core.Access, aop core.AtomicOp) {
	scope := a.Scope
	if m.blindAtomics {
		scope = core.ScopeDevice
		if a.Kind == core.KindAtomic {
			a.Scope = core.ScopeDevice
		}
	}
	m.inner.CheckAccess(a)
	m.inner.OnAtomicOp(a.Block, a.Warp, aop, a.Addr, scope)
}

func (m *Model) OnFence(block, warp int, scope core.Scope) {
	if m.blindFences {
		scope = core.ScopeDevice
	}
	m.inner.OnFence(block, warp, scope)
}

// LDetector models LDetector (Li et al., WODET'14): parallel-region
// snapshot comparison. It sees only stores, flags a location written by
// two different warps in one kernel when the second write changes the
// value (silent stores are invisible to value diffing), and ignores all
// synchronization — fences, atomics and locks alike.
//
// Both maps are made on their first write. A kernel start drops the
// writers map rather than clearing it: clearing costs the capacity the
// largest kernel grew it to, at every launch after it.
type LDetector struct {
	writers map[uint64]ldWrite // this kernel's last writer per address
	records []core.Record
	seen    map[uint64]bool // addresses already reported
}

type ldWrite struct {
	block, warp int
}

// NewLDetector returns the snapshot-diff model.
func NewLDetector() *LDetector { return &LDetector{} }

func (l *LDetector) Name() string { return "LDetector" }

func (l *LDetector) OnKernelStart() { l.writers = nil }

func (l *LDetector) OnAccess(a core.Access, _ core.AtomicOp) {
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

func (l *LDetector) OnFence(int, int, core.Scope) {}
func (l *LDetector) Records() []core.Record       { return l.records }
