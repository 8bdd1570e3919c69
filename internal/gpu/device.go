// Package gpu ties the simulated GPU together: streaming multiprocessors
// with private non-coherent L1 caches, a banked shared L2, the SM<->L2
// interconnect, GDDR5-timed DRAM channels, kernel launch and block
// dispatch, the HRF-style scoped visibility rules, and the hook-up of the
// ScoRD race detector on the L2 side of the interconnect (Figure 6 of the
// paper).
//
// Kernels are Go functions executed at warp granularity by coroutines; the
// single-threaded event engine resumes exactly one warp at a time, so every
// simulation is deterministic.
package gpu

import (
	"fmt"
	"sync/atomic"

	"scord/internal/cache"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/dram"
	"scord/internal/engine"
	"scord/internal/mem"
	"scord/internal/noc"
	"scord/internal/stats"
	"scord/internal/trace"
)

// Kernel is a GPU kernel body, executed once per warp.
type Kernel func(c *Ctx)

// Device is one simulated GPU.
type Device struct {
	cfg config.Config
	eng *engine.Engine
	mem *mem.Memory
	st  stats.Stats

	l2      *cache.Cache
	l2Ports []noc.Port
	dram    *dram.DRAM
	net     *noc.Network
	sms     []*smState

	det           *core.Detector
	detPort       noc.Port // detector service occupancy, in check slots
	metaLatchLine mem.Addr
	metaLatchAt   uint64

	// checkers are purely functional observers of the access stream (the
	// Table VIII comparison models); they never affect timing.
	checkers []core.Checker

	// tracer, when attached, records per-warp execution events.
	tracer *trace.Tracer

	// probe, when attached, observes the simulated clock at every request
	// service point (the cycle-domain sampling hook of internal/obs).
	probe Probe

	// cycleWatch, when attached, receives the current simulated cycle so
	// an external observer (live run telemetry) can read progress without
	// touching simulation state.
	cycleWatch *atomic.Uint64

	// sink, when attached, records the scoped memory-op stream in detector
	// presentation order (trace record/replay, internal/tracefile).
	sink OpSink

	// ph books every latency the timing model charges to a phase account
	// (internal/obs cycle-attribution profiling).
	ph PhaseAccounts

	// State of the kernel currently executing.
	kernel        Kernel
	gridBlocks    int
	warpsPerBlock int
	pending       []int // block ids awaiting an SM slot
	blocks        map[int]*blockState
	liveWarps     int

	kernelLog []KernelRun
}

// KernelRun records one completed launch: its geometry, wall-clock in
// simulated cycles, and the per-launch delta of every statistic.
type KernelRun struct {
	Name    string
	Blocks  int
	Threads int
	Cycles  uint64 // cycles this launch took (not cumulative)
	Stats   stats.Stats
}

type smState struct {
	id        int
	l1        *cache.Cache
	lsuFree   uint64 // next cycle the load/store unit can issue
	resBlocks int
	resWarps  int
	ctr       SMCounters
}

// SMCounters aggregates one SM's activity, cumulative over the device's
// lifetime like stats.Stats. The per-SM split is what shows *which* SMs a
// kernel loads or stalls — the totals in Stats cannot.
type SMCounters struct {
	Instructions   uint64 // warp instructions issued from this SM
	MemOps         uint64 // warp-level memory operations issued
	L1Accesses     uint64
	L1Hits         uint64
	DetectorStalls uint64 // cycles this SM's L1 hits stalled on the detector inbox
}

// Sub returns the field-wise difference c - o (all fields are monotone).
func (c SMCounters) Sub(o SMCounters) SMCounters {
	return SMCounters{
		Instructions:   c.Instructions - o.Instructions,
		MemOps:         c.MemOps - o.MemOps,
		L1Accesses:     c.L1Accesses - o.L1Accesses,
		L1Hits:         c.L1Hits - o.L1Hits,
		DetectorStalls: c.DetectorStalls - o.DetectorStalls,
	}
}

type blockState struct {
	id        int
	sm        int
	barrierID uint8
	waiting   []*Ctx // warps parked at the current barrier
	live      int    // warps not yet exited
}

// New builds a device from the configuration.
func New(cfg config.Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:     cfg,
		eng:     engine.New(),
		mem:     mem.New(uint64(cfg.DeviceMemBytes)),
		l2:      cache.New(cfg.L2Size, cfg.L2Assoc, cfg.LineSize, false),
		l2Ports: make([]noc.Port, cfg.L2Banks),
		dram:    dram.New(cfg),
		blocks:  make(map[int]*blockState),
	}
	d.net = noc.New(cfg.NOCLat, cfg.NOCBytesPerCy, cfg.NumSMs, cfg.L2Banks, &d.st)
	for i := 0; i < cfg.NumSMs; i++ {
		d.sms = append(d.sms, &smState{
			id: i,
			l1: cache.New(cfg.L1Size, cfg.L1Assoc, cfg.LineSize, true),
		})
	}
	if cfg.Detector.Mode != config.ModeOff {
		d.det = core.NewDetector(cfg.Detector, d.mem.Words(), uint64(cfg.DeviceMemBytes), &d.st)
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() config.Config { return d.cfg }

// Mem exposes device memory for host-side setup and result readback.
func (d *Device) Mem() *mem.Memory { return d.mem }

// Alloc reserves n 4-byte words of device memory under a name that race
// reports will use.
func (d *Device) Alloc(name string, n int) mem.Addr {
	a := d.mem.AllocWords(name, n)
	if d.sink != nil {
		d.sink.Alloc(name, uint64(a), uint64(n)*4)
	}
	return a
}

// OpSink observes the scoped memory-op stream — the exact sequence of
// accesses, fences, barrier releases and kernel boundaries the detector
// is presented with, in presentation order. The stream is a pure function
// of (config, seed, kernel), so recording it once (internal/tracefile)
// lets internal/replay re-run any detector model without the timing
// simulator. Like the tracer, probe and checkers, a sink is purely
// observational: it must not mutate simulation state, and a detached
// (nil) sink costs one predictable branch per op.
type OpSink interface {
	// KernelStart fires at each launch, after per-kernel detector state
	// reset; KernelEnd after the final L1 flush.
	KernelStart(name string, blocks, threads int, cycle uint64)
	KernelEnd(name string, cycle uint64)
	// Alloc records one named device-memory allocation (base address and
	// size in bytes), in allocation order.
	Alloc(name string, base, size uint64)
	// Access records one lane-level access exactly as built for the
	// detector, plus the atomic flavour and the access width in bytes.
	Access(a core.Access, aop core.AtomicOp, size uint32)
	// Fence records a scoped fence by one warp; fromBarrier marks the
	// implicit block-scope fence each warp performs at a barrier release.
	Fence(block, warp int, scope core.Scope, cycle uint64, fromBarrier bool)
	// Barrier records a barrier release: the block's barrier ID advanced
	// and warps warps resumed (the per-warp fences follow as Fence ops).
	Barrier(block int, id uint8, warps int, cycle uint64)
}

// SetOpSink attaches the memory-op stream recorder (nil detaches it).
func (d *Device) SetOpSink(s OpSink) { d.sink = s }

// Stats returns the accumulated simulation statistics.
func (d *Device) Stats() *stats.Stats { return &d.st }

// Detector returns the race detector, or nil when detection is off.
func (d *Device) Detector() *core.Detector { return d.det }

// AddChecker attaches a functional race-detection model (a Table VIII
// comparator) that observes the access stream without timing impact.
func (d *Device) AddChecker(c core.Checker) { d.checkers = append(d.checkers, c) }

// AttachTracer records execution events (memory transactions, fences,
// barriers, kernel boundaries, races) into tr until detached with nil.
// Tracing is purely observational.
func (d *Device) AttachTracer(tr *trace.Tracer) { d.tracer = tr }

// Probe observes the simulated clock from inside the simulation loop. It
// is invoked at every warp request service point and once at the end of
// each launch, always with the current simulated cycle — wall-clock time
// never appears. A probe must not mutate simulation state; like the
// tracer and checkers it is purely observational, and a detached (nil)
// probe costs a single predictable branch.
type Probe interface {
	Tick(now uint64)
}

// SetProbe attaches the cycle-domain observer (nil detaches it).
func (d *Device) SetProbe(p Probe) { d.probe = p }

// WatchCycles publishes the current simulated cycle into g at every
// request service point, letting another goroutine (live run telemetry)
// read simulation progress. The store is atomic and carries no other
// synchronization; nil detaches.
func (d *Device) WatchCycles(g *atomic.Uint64) { d.cycleWatch = g }

// SMCountersSnapshot copies the per-SM activity counters, indexed by SM id.
func (d *Device) SMCountersSnapshot() []SMCounters {
	out := make([]SMCounters, len(d.sms))
	d.SMCountersInto(out)
	return out
}

// SMCountersInto copies the per-SM counters into dst (one element per
// SM) without allocating.
func (d *Device) SMCountersInto(dst []SMCounters) {
	for i, sm := range d.sms {
		if i >= len(dst) {
			return
		}
		dst[i] = sm.ctr
	}
}

// DRAMChannelAccessesInto copies per-channel DRAM transaction counts into
// dst (one element per channel) without allocating.
func (d *Device) DRAMChannelAccessesInto(dst []uint64) { d.dram.ChannelAccessesInto(dst) }

// Races returns the accumulated race records (empty when detection is off).
func (d *Device) Races() []core.Record {
	if d.det == nil {
		return nil
	}
	return d.det.Records()
}

// DescribeRecord renders a race record with the data address resolved to
// its allocation name.
func (d *Device) DescribeRecord(r core.Record) string {
	scope := "device-scope"
	if r.SameBlock {
		scope = "block-scope"
	}
	return fmt.Sprintf("%s %s race on %s site=%q prev=(b%d,w%d) cur=(b%d,w%d) x%d",
		scope, r.Kind, d.mem.Describe(mem.Addr(r.Addr)), r.Site,
		r.PrevBlock, r.PrevWarp, r.CurBlock, r.CurWarp, r.Count)
}

// ExplainRecord renders a multi-line diagnosis of a race record — what was
// observed, why it races under the scoped memory model, and the usual fix —
// with addresses resolved to allocation names.
func (d *Device) ExplainRecord(r core.Record) string {
	return core.Explain(r, func(addr uint64) string { return d.mem.Describe(mem.Addr(addr)) })
}

// Cycles returns the current simulated cycle.
func (d *Device) Cycles() uint64 { return d.eng.Now() }

// Launch runs a kernel to completion: blocks*threadsPerBlock threads,
// executed as warps of Config.WarpSize. It returns an error on invalid
// geometry, barrier deadlock, or a runaway simulation.
func (d *Device) Launch(name string, blocks, threadsPerBlock int, k Kernel) error {
	switch {
	case blocks <= 0:
		return fmt.Errorf("gpu: launch %q with %d blocks", name, blocks)
	case threadsPerBlock <= 0 || threadsPerBlock%d.cfg.WarpSize != 0:
		return fmt.Errorf("gpu: launch %q with %d threads/block (must be a positive multiple of %d)",
			name, threadsPerBlock, d.cfg.WarpSize)
	case threadsPerBlock > d.cfg.MaxThreadsBlock:
		return fmt.Errorf("gpu: launch %q with %d threads/block exceeds max %d",
			name, threadsPerBlock, d.cfg.MaxThreadsBlock)
	}
	d.kernel = k
	d.gridBlocks = blocks
	d.warpsPerBlock = threadsPerBlock / d.cfg.WarpSize
	d.pending = d.pending[:0]
	d.blocks = make(map[int]*blockState)
	d.liveWarps = 0

	// A kernel launch is a device-wide synchronization point: caches drain
	// and the detector's per-kernel state re-initializes.
	for _, sm := range d.sms {
		sm.l1.FlushAll(d.mem)
		sm.resBlocks, sm.resWarps = 0, 0
		sm.lsuFree = d.eng.Now()
	}
	if d.det != nil {
		d.det.ResetForKernel()
	}
	for _, ch := range d.checkers {
		ch.OnKernelStart()
	}
	if d.tracer != nil {
		d.tracer.Record(trace.Event{Cycle: d.eng.Now(), Kind: trace.EvKernel, Info: name})
	}
	if d.sink != nil {
		d.sink.KernelStart(name, blocks, threadsPerBlock, d.eng.Now())
	}

	before := d.st
	launchStart := d.eng.Now()

	for b := 0; b < blocks; b++ {
		d.pending = append(d.pending, b)
	}
	d.fillSMs()

	// Drive the event loop to completion. Both limits are generous: any
	// realistic kernel in the suite finishes well under them. The event
	// budget backstops livelocks that reschedule at a fixed cycle and so
	// would never trip the cycle limit.
	const (
		cycleLimit = 4_000_000_000
		eventLimit = 2_000_000_000
	)
	start := d.eng.Now()
	if _, ok := d.eng.RunBudget(engine.Budget{MaxCycle: start + cycleLimit, MaxEvents: eventLimit}); !ok {
		return fmt.Errorf("gpu: kernel %q exceeded %d cycles or %d events (livelock?)", name, uint64(cycleLimit), uint64(eventLimit))
	}
	if d.liveWarps != 0 || len(d.pending) != 0 {
		return fmt.Errorf("gpu: kernel %q deadlocked with %d warps live, %d blocks undispatched (barrier mismatch?)",
			name, d.liveWarps, len(d.pending))
	}
	// Kernel end: dirty lines become globally visible.
	for _, sm := range d.sms {
		sm.l1.FlushAll(d.mem)
	}
	d.st.Cycles = d.eng.Now()
	if d.tracer != nil {
		d.tracer.Record(trace.Event{Cycle: d.eng.Now(), Kind: trace.EvKernelEnd, Info: name})
	}
	if d.sink != nil {
		d.sink.KernelEnd(name, d.eng.Now())
	}
	// Flush the sampler's final partial interval at the launch boundary so
	// the tail of a kernel is never silently dropped from sampled series.
	if d.probe != nil {
		d.probe.Tick(d.eng.Now())
	}
	if d.cycleWatch != nil {
		d.cycleWatch.Store(d.eng.Now())
	}

	run := KernelRun{
		Name:    name,
		Blocks:  blocks,
		Threads: threadsPerBlock,
		Cycles:  d.eng.Now() - launchStart,
		Stats:   d.st.Sub(&before),
	}
	d.kernelLog = append(d.kernelLog, run)
	return nil
}

// KernelLog returns one entry per completed Launch with per-launch
// statistics deltas.
func (d *Device) KernelLog() []KernelRun {
	out := make([]KernelRun, len(d.kernelLog))
	copy(out, d.kernelLog)
	return out
}

// fillSMs dispatches pending blocks onto SMs with free slots, round-robin.
func (d *Device) fillSMs() {
	for len(d.pending) > 0 {
		sm := d.pickSM()
		if sm == nil {
			return
		}
		blockID := d.pending[0]
		d.pending = d.pending[1:]
		sm.resBlocks++
		sm.resWarps += d.warpsPerBlock
		bs := &blockState{id: blockID, sm: sm.id, live: d.warpsPerBlock}
		d.blocks[blockID] = bs
		for w := 0; w < d.warpsPerBlock; w++ {
			d.startWarp(bs, w)
		}
	}
}

func (d *Device) pickSM() *smState {
	var best *smState
	for _, sm := range d.sms {
		if sm.resBlocks >= d.cfg.MaxBlocksPerSM || sm.resWarps+d.warpsPerBlock > d.cfg.MaxWarpsPerSM {
			continue
		}
		if best == nil || sm.resWarps < best.resWarps ||
			(sm.resWarps == best.resWarps && sm.id < best.id) {
			best = sm
		}
	}
	return best
}

// blockDone releases a finished block's SM slot and dispatches more work.
func (d *Device) blockDone(bs *blockState) {
	sm := d.sms[bs.sm]
	sm.resBlocks--
	sm.resWarps -= d.warpsPerBlock
	delete(d.blocks, bs.id)
	d.fillSMs()
}
