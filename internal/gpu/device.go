// Package gpu ties the simulated GPU together: streaming multiprocessors
// with private non-coherent L1 caches, a banked shared L2, the SM<->L2
// interconnect, GDDR5-timed DRAM channels, kernel launch and block
// dispatch, the HRF-style scoped visibility rules, and the hook-up of the
// ScoRD race detector on the L2 side of the interconnect (Figure 6 of the
// paper).
//
// Kernels are Go functions executed at warp granularity, each warp on its
// own goroutine. Only one goroutine of a launch runs at a time: the one
// holding the baton, which runs the event loop and passes the baton to
// the warp an event resumes. So every simulation is deterministic.
package gpu

import (
	"fmt"
	"runtime/debug"

	"scord/internal/cache"
	"scord/internal/config"
	"scord/internal/core"
	"scord/internal/dram"
	"scord/internal/engine"
	"scord/internal/mem"
	"scord/internal/noc"
	"scord/internal/stats"
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

	// probe, when attached, observes the simulated clock at every request
	// service point (the metric sampler and live telemetry of internal/obs).
	probe Probe

	// sink, when attached, observes the scoped memory-op stream in
	// detector presentation order (trace recording, and the Table VIII
	// models through replay.Sink).
	sink OpSink

	// ph books every latency the timing model charges to a phase account
	// (internal/obs cycle-attribution profiling).
	ph PhaseAccounts

	// State of the kernel currently executing.
	name          string
	kernel        Kernel
	gridBlocks    int
	warpsPerBlock int
	pending       []int // block ids awaiting an SM slot
	blocks        map[int]*blockState
	liveWarps     int
	warps         []*Ctx // the launch's warps whose goroutines live

	// Baton hand-off state. holder is the goroutine running the event
	// loop (a warp's, or Launch's when nil); active is the warp whose
	// kernel or request service runs, which a panic is blamed on and
	// which a paused drain resumes.
	holder     *Ctx
	active     *Ctx
	launchWake chan struct{}
	failure    *WarpPanic // a warp goroutine's panic, for Launch to re-raise

	// Scratch reused by serviceMem, which is never re-entered.
	txBuf     []transaction
	laneBuf   []int
	metaLines []mem.Addr

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

		launchWake: make(chan struct{}),
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
// simulator, and replay.Sink runs the same models on it live. Like the
// probe, the device's other observer hook, a sink is purely
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

// SetOpSink attaches the memory-op stream observer (nil detaches it).
func (d *Device) SetOpSink(s OpSink) { d.sink = s }

// Stats returns the accumulated simulation statistics.
func (d *Device) Stats() *stats.Stats { return &d.st }

// Detector returns the race detector, or nil when detection is off.
func (d *Device) Detector() *core.Detector { return d.det }

// Probe observes the simulated clock from inside the simulation loop. It
// is invoked at every warp request service point and once at the end of
// each launch, always with the current simulated cycle — wall-clock time
// never appears. A probe must not mutate simulation state; like the
// sink it is purely observational, and a detached (nil) probe costs a
// single predictable branch. The metric sampler and the live telemetry
// gauge of internal/obs are probes.
type Probe interface {
	Tick(now uint64)
}

// SetProbe attaches the cycle-domain observer (nil detaches it).
func (d *Device) SetProbe(p Probe) { d.probe = p }

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
// its allocation name (core.Describe).
func (d *Device) DescribeRecord(r core.Record) string { return core.Describe(r, d.locate) }

// ExplainRecord renders a multi-line diagnosis of a race record — what was
// observed, why it races under the scoped memory model, and the usual fix —
// with addresses resolved to allocation names.
func (d *Device) ExplainRecord(r core.Record) string { return core.Explain(r, d.locate) }

// locate resolves a data address to its allocation name.
func (d *Device) locate(addr uint64) string { return d.mem.Describe(mem.Addr(addr)) }

// Cycles returns the current simulated cycle.
func (d *Device) Cycles() uint64 { return d.eng.Now() }

// Launch runs a kernel to completion: blocks*threadsPerBlock threads,
// executed as warps of Config.WarpSize. It returns an error on invalid
// geometry, barrier deadlock, or a runaway simulation. A panic in the
// kernel, or in the simulator while it serves a warp, is re-raised on the
// caller's goroutine as a *WarpPanic; the device is unusable after it.
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
	d.name, d.kernel = name, k
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
	if d.sink != nil {
		d.sink.KernelStart(name, blocks, threadsPerBlock, d.eng.Now())
	}

	before := d.st
	launchStart := d.eng.Now()

	for b := 0; b < blocks; b++ {
		d.pending = append(d.pending, b)
	}

	// Drive the event loop to completion. Both limits are generous: any
	// realistic kernel in the suite finishes well under them. The event
	// budget backstops livelocks that reschedule at a fixed cycle and so
	// would never trip the cycle limit.
	const (
		cycleLimit = 4_000_000_000
		eventLimit = 2_000_000_000
	)
	d.eng.Begin(engine.Budget{MaxCycle: d.eng.Now() + cycleLimit, MaxEvents: eventLimit})
	if !d.simulate() {
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
	if d.sink != nil {
		d.sink.KernelEnd(name, d.eng.Now())
	}
	// Flush the sampler's final partial interval at the launch boundary so
	// the tail of a kernel is never silently dropped from sampled series.
	if d.probe != nil {
		d.probe.Tick(d.eng.Now())
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

// simulate dispatches the launch's first blocks and drains its event
// queue, passing the baton between goroutines until the drain is over. It
// reports false when the launch's budget stopped the drain, which leaves
// events queued. However the drain ends, no warp goroutine outlives it
// (stopWarps).
func (d *Device) simulate() bool {
	d.holder, d.active = nil, nil
	defer func() {
		r := recover()
		if _, ok := r.(*WarpPanic); r != nil && !ok && d.active != nil {
			r = d.blame(r)
		}
		d.stopWarps()
		if r != nil {
			panic(r)
		}
	}()
	d.fillSMs()
	if next := d.drain(); next != nil {
		d.pass(next)
		d.wait(nil)
	}
	return d.eng.Pending() == 0
}

// drain runs the launch's event loop on the baton holder's goroutine until
// an event resumes a warp, and returns that warp. It returns nil once the
// drain is over, so the baton goes back to Launch's goroutine.
func (d *Device) drain() *Ctx {
	if d.eng.Drain() == engine.Paused {
		return d.active
	}
	return nil
}

// pass hands the baton to warp c's goroutine, or to Launch's when c is nil.
// The caller must not touch simulation state until the baton comes back.
func (d *Device) pass(c *Ctx) {
	d.holder = c
	if c == nil {
		d.launchWake <- struct{}{}
	} else {
		c.wake <- struct{}{}
	}
}

// wait blocks until the baton comes back to warp c's goroutine, or to
// Launch's when c is nil; there it re-raises a warp goroutine's panic.
func (d *Device) wait(c *Ctx) {
	if c != nil {
		<-c.wake
		return
	}
	<-d.launchWake
	if f := d.failure; f != nil {
		d.failure = nil
		panic(f)
	}
}

// forget drops warp c from the launch's list before its goroutine ends.
// The caller holds the baton.
func (d *Device) forget(c *Ctx) {
	n := len(d.warps) - 1
	last := d.warps[n]
	last.slot = c.slot
	d.warps[c.slot] = last
	d.warps[n] = nil
	d.warps = d.warps[:n]
}

// stopWarps ends the goroutine of every warp the launch left parked, as
// a panic, a deadlock or the cycle budget does; a launch that completes
// leaves none. It runs on the goroutine holding the baton, with every
// other goroutine of the launch parked: each wakes, sees its stop flag
// and exits.
func (d *Device) stopWarps() {
	for _, c := range d.warps {
		c.stop = true
		c.wake <- struct{}{}
	}
	clear(d.warps)
	d.warps = d.warps[:0]
}

// WarpPanic is the value Launch panics with when kernel code, or simulator
// code serving a warp's request, panics. It names the warp and keeps the
// original value and the stack of the goroutine that panicked.
type WarpPanic struct {
	Kernel      string
	Block, Warp int
	Value       any    // the original panic value
	Stack       []byte // from runtime/debug.Stack at the recover
}

func (p *WarpPanic) Error() string {
	return fmt.Sprintf("gpu: kernel %q block %d warp %d: %v\n\n%s", p.Kernel, p.Block, p.Warp, p.Value, p.Stack)
}

// blame wraps panic value r, recovered on the panicking goroutine, as a
// panic of the active warp.
func (d *Device) blame(r any) *WarpPanic {
	return &WarpPanic{Kernel: d.name, Block: d.active.Block, Warp: d.active.Warp, Value: r, Stack: debug.Stack()}
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
