// Package replay runs race detectors over recorded memory-op traces
// (internal/tracefile) without instantiating the timing simulator — no
// SMs, NOC, DRAM or event engine. The detection logic is a pure function
// of the scoped memory-op stream, so feeding a recorded stream through a
// detector reproduces the live run's race set and detector counters
// bit-for-bit, orders of magnitude faster than re-simulating. That makes
// record-once-replay-many the natural shape for detector experiments:
// one simulation produces a trace, then every detector model and
// configuration replays it.
//
// Each recorded access reaches a target as one OnAccess call carrying
// its atomic flavour, and the target orders its own updates: for ScoRD,
// a release atomic's OnAtomicOp precedes CheckAccess (the release fence
// must be visible to the metadata update) while every other atomic
// flavour follows it, exactly as on the live device; the Table VIII
// comparison models check the access before applying its flavour. Sink
// feeds the same calls to targets from a live device's op stream. Device
// memory is reconstructed from the recorded allocations (the bump
// allocator is deterministic), so race records resolve to the same
// allocation names as live reports.
package replay

import (
	"fmt"
	"io"
	"sort"

	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/detectors"
	"scord/internal/mem"
	"scord/internal/stats"
	"scord/internal/tracefile"
)

// Target is a race-detection model driven by the replay engine or, live,
// by Sink. OnAccess takes a whole recorded access, because each model
// expands it to its own call sequence (see package doc).
type Target interface {
	// Name identifies the model in results.
	Name() string
	// OnKernelStart resets per-kernel state (kernel launch = global sync).
	OnKernelStart()
	// OnAccess observes one lane-level access and its atomic flavour.
	OnAccess(a core.Access, aop core.AtomicOp)
	// OnFence observes a scoped fence by a warp.
	OnFence(block, warp int, scope core.Scope)
	// Records returns the model's accumulated race reports.
	Records() []core.Record
}

// Sink drives targets live from a device's memory-op stream: it has
// gpu.OpSink's method set, and attached with gpu.Device.SetOpSink it
// makes each target exactly the calls a replay of the run's recording
// makes (Result.apply). Allocations and the kernel-end and barrier
// markers need no call.
type Sink []Target

func (s Sink) KernelStart(string, int, int, uint64) {
	for _, t := range s {
		t.OnKernelStart()
	}
}

func (s Sink) Access(a core.Access, aop core.AtomicOp, _ uint32) {
	for _, t := range s {
		t.OnAccess(a, aop)
	}
}

func (s Sink) Fence(block, warp int, scope core.Scope, _ uint64, _ bool) {
	for _, t := range s {
		t.OnFence(block, warp, scope)
	}
}

func (Sink) KernelEnd(string, uint64)        {}
func (Sink) Alloc(string, uint64, uint64)    {}
func (Sink) Barrier(int, uint8, int, uint64) {}

// ScoRD is the replay target wrapping the real ScoRD detection logic,
// constructed exactly as the live device builds it (same word count, same
// metadata base, its own stats sink) so counters compare bit-for-bit.
type ScoRD struct {
	det *core.Detector
	st  stats.Stats
}

// NewScoRD builds the ScoRD target from a device configuration, which
// must have detection enabled (a trace recorded with detection off can
// still be replayed — pass cfg.WithDetector(mode) to choose one).
func NewScoRD(cfg config.Config) (*ScoRD, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if cfg.Detector.Mode == config.ModeOff {
		return nil, fmt.Errorf("replay: detector mode is off; choose a mode to replay under")
	}
	s := &ScoRD{}
	s.det = core.NewDetector(cfg.Detector, cfg.DeviceMemBytes/mem.WordBytes, uint64(cfg.DeviceMemBytes), &s.st)
	return s, nil
}

// Name implements Target.
func (s *ScoRD) Name() string { return "ScoRD" }

// OnKernelStart implements Target.
func (s *ScoRD) OnKernelStart() { s.det.ResetForKernel() }

// OnAccess implements Target, reproducing the live device's per-lane
// ordering: the release pattern's fence precedes its atomic write, so the
// metadata must record the post-fence IDs (gpu.serviceMem).
func (s *ScoRD) OnAccess(a core.Access, aop core.AtomicOp) {
	if aop == core.AtomicRelease {
		s.det.OnAtomicOp(a.Block, a.Warp, aop, a.Addr, a.Scope)
	}
	s.det.CheckAccess(a)
	if aop != core.AtomicRelease {
		s.det.OnAtomicOp(a.Block, a.Warp, aop, a.Addr, a.Scope)
	}
}

// OnFence implements Target.
func (s *ScoRD) OnFence(block, warp int, scope core.Scope) { s.det.OnFence(block, warp, scope) }

// Records implements Target.
func (s *ScoRD) Records() []core.Record { return s.det.Records() }

// Counters returns the detector-owned counter subset (see
// DetectorCounters).
func (s *ScoRD) Counters() stats.Stats { return DetectorCounters(&s.st) }

// Overflowed reports distinct races dropped after the record cap.
func (s *ScoRD) Overflowed() int { return s.det.Overflowed() }

// EnableProvenance switches on evidence capture in the wrapped detector
// (must be called before replaying; see core.Detector.EnableProvenance).
func (s *ScoRD) EnableProvenance() { s.det.EnableProvenance() }

// EvidenceFor returns the captured provenance for one race record.
func (s *ScoRD) EvidenceFor(r core.Record) (core.Evidence, bool) { return s.det.EvidenceFor(r) }

// DetectorCounters extracts the counters the detection logic itself owns
// and bumps — the subset a replay reproduces bit-for-bit. The remaining
// Stats fields (cycles, cache/DRAM/NOC traffic, detector stalls) are
// timing-model quantities that do not exist without the simulator.
func DetectorCounters(s *stats.Stats) stats.Stats {
	return stats.Stats{
		DetectorChecks:    s.DetectorChecks,
		DetectorPrelimOK:  s.DetectorPrelimOK,
		MetaCacheEvicts:   s.MetaCacheEvicts,
		RacesReported:     s.RacesReported,
		ReleaseObserved:   s.ReleaseObserved,
		DivergentAccesses: s.DivergentAccesses,
	}
}

// targetFactories maps -detector names to constructors. "scord" replays
// the real detector under the trace's recorded configuration (or the
// mode the caller overrode into cfg); the rest are the Table VIII
// comparison models, which carry their own fixed detector configuration
// but size their metadata by cfg's device arena.
var targetFactories = map[string]func(cfg config.Config) (Target, error){
	"scord":     func(cfg config.Config) (Target, error) { return NewScoRD(cfg) },
	"ldetector": func(config.Config) (Target, error) { return detectors.NewLDetector(), nil },
	"haccrg":    func(cfg config.Config) (Target, error) { return newModel(cfg, detectors.NewHAccRG) },
	"barracuda": func(cfg config.Config) (Target, error) { return newModel(cfg, detectors.NewBarracuda) },
	"curd":      func(cfg config.Config) (Target, error) { return newModel(cfg, detectors.NewCURD) },
}

// newModel builds a comparison model for cfg's device arena, sized as
// NewScoRD sizes the real detector.
func newModel(cfg config.Config, mk func(words int) *detectors.Model) (Target, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	return mk(cfg.DeviceMemBytes / mem.WordBytes), nil
}

// TargetNames lists the valid TargetByName names, sorted.
func TargetNames() []string {
	names := make([]string, 0, len(targetFactories))
	for n := range targetFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TargetByName builds a fresh detector target. cfg is the configuration
// to build ScoRD under (normally the trace header's, possibly with the
// detector mode overridden).
func TargetByName(name string, cfg config.Config) (Target, error) {
	f, ok := targetFactories[name]
	if !ok {
		return nil, fmt.Errorf("replay: unknown detector %q (choose from %v)", name, TargetNames())
	}
	return f(cfg)
}

// Result is one replay outcome.
type Result struct {
	Header   tracefile.Header
	Detector string

	// Races is the model's accumulated race records, identical to the
	// live run's for an unperturbed trace.
	Races []core.Record
	// Counters holds the detector-owned counters (ScoRD target only;
	// zero for the comparison models, which keep their own private sinks).
	Counters stats.Stats
	// Overflowed counts distinct races dropped after the record cap
	// (ScoRD target only).
	Overflowed int

	// Ops, Accesses and Kernels count what the trace contained.
	Ops, Accesses, Kernels int

	// Mem is the reconstructed device memory map: no data, but the same
	// named allocations at the same addresses, so race records resolve to
	// allocation names exactly as on the live device.
	Mem *mem.Memory
}

// DescribeRecord renders a race record with its address resolved against
// the reconstructed allocation map (core.Describe).
func (r *Result) DescribeRecord(rec core.Record) string {
	return core.Describe(rec, func(addr uint64) string { return r.Mem.Describe(mem.Addr(addr)) })
}

// Run streams every op of r through the target and returns the outcome.
func Run(r *tracefile.Reader, t Target) (*Result, error) {
	res := newResult(r.Header(), t)
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := res.apply(t, &op); err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// RunOps replays an in-memory op sequence (e.g. a perturbed one) under
// the given header's configuration.
func RunOps(h tracefile.Header, ops []tracefile.Op, t Target) (*Result, error) {
	res := newResult(h, t)
	for i := range ops {
		if err := res.apply(t, &ops[i]); err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// RunOpsPermuted replays ops in the order given by perm (perm[k] is the
// index into ops of the k-th op to apply) under the given header's
// configuration. The schedule explorer uses this to replay thousands of
// candidate interleavings of one decoded trace without materializing a
// reordered op slice per schedule. perm must be a permutation of
// [0, len(ops)); only its length and range are validated here —
// legality of the interleaving is the caller's contract (CheckSchedule).
func RunOpsPermuted(h tracefile.Header, ops []tracefile.Op, perm []int, t Target) (*Result, error) {
	if len(perm) != len(ops) {
		return nil, fmt.Errorf("replay: permutation has %d entries for %d ops", len(perm), len(ops))
	}
	res := newResult(h, t)
	for _, idx := range perm {
		if idx < 0 || idx >= len(ops) {
			return nil, fmt.Errorf("replay: permutation entry %d out of range [0,%d)", idx, len(ops))
		}
		if err := res.apply(t, &ops[idx]); err != nil {
			return nil, err
		}
	}
	res.finish(t)
	return res, nil
}

// ReadAll decodes the rest of a trace into one exactly sized slice — the
// entry point for every whole-trace consumer (multi-target replay,
// prediction, exploration, repair and the serve workers). It is
// tracefile.Reader.ReadAll.
func ReadAll(r *tracefile.Reader) ([]tracefile.Op, error) {
	return r.ReadAll()
}

func newResult(h tracefile.Header, t Target) *Result {
	return &Result{
		Header:   h,
		Detector: t.Name(),
		Mem:      mem.NewMap(uint64(h.Config.DeviceMemBytes)),
	}
}

// apply dispatches one op to the target, reconstructing allocations and
// validating that the deterministic bump allocator lands where the
// recording says it did. The op is passed by pointer and never retained:
// the Op struct is large enough that copying it per dispatch dominates
// the replay hot loop.
func (res *Result) apply(t Target, op *tracefile.Op) error {
	res.Ops++
	switch op.Kind {
	case tracefile.OpAccess:
		res.Accesses++
		t.OnAccess(op.Access, op.AtomicOp)
	case tracefile.OpFence:
		t.OnFence(op.Block, op.Warp, op.Scope)
	case tracefile.OpKernel:
		res.Kernels++
		t.OnKernelStart()
	case tracefile.OpKernelEnd, tracefile.OpBarrier:
		// Markers for inspection and perturbation boundaries; the
		// synchronization they imply arrives as explicit Fence/Kernel ops.
	case tracefile.OpAlloc:
		base := res.Mem.Alloc(op.Name, op.Bytes)
		if uint64(base) != op.Base {
			return fmt.Errorf("replay: allocation %q reconstructed at %#x but recorded at %#x (trace/config drift)",
				op.Name, uint64(base), op.Base)
		}
	default:
		return fmt.Errorf("replay: unhandled op kind %v", op.Kind)
	}
	return nil
}

func (res *Result) finish(t Target) {
	res.Races = t.Records()
	if s, ok := t.(*ScoRD); ok {
		res.Counters = s.Counters()
		res.Overflowed = s.Overflowed()
	}
}
