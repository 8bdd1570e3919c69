package gpu

import (
	"fmt"
	"runtime"

	"scord/internal/core"
	"scord/internal/engine"
	"scord/internal/mem"
)

// Scope aliases the detector's scope type so kernels only import gpu.
type Scope = core.Scope

// Scoped-synchronization scopes (system scope is out of scope, as in the
// paper).
const (
	ScopeBlock  = core.ScopeBlock
	ScopeDevice = core.ScopeDevice
)

type reqKind uint8

const (
	reqMem reqKind = iota
	reqFence
	reqBarrier
	reqWork
	reqExit
)

type memOp struct {
	kind     core.AccessKind
	atomicOp core.AtomicOp
	scope    core.Scope
	volatile bool
	addrs    []mem.Addr
	vals     []uint32 // store data / atomic operands
	cmps     []uint32 // CAS compare values
	out      []uint32 // load/atomic results (old values)
	acqrel   int8     // 0 none, +1 acquire, -1 release (Section VI extension)
}

type request struct {
	kind   reqKind
	mem    memOp
	scope  core.Scope // fence scope
	cycles uint64     // work duration
}

// Ctx is the per-warp execution context handed to a Kernel. All methods
// must be called from the kernel's own goroutine; each memory operation,
// fence, barrier or Work call hands control to the simulator and returns
// once the operation's simulated latency has elapsed.
//
// The programming model is warp-granular, matching ScoRD's detection
// granularity: scalar operations act as the warp's single active lane,
// vector operations (...Vec) touch one address per lane and are coalesced
// into per-cache-line transactions.
type Ctx struct {
	dev   *Device
	block *blockState

	// Identity, fixed at launch.
	Block    int // block index within the grid
	Warp     int // warp index within the block
	WarpSize int
	Blocks   int // grid size in blocks
	Warps    int // warps per block

	site     string // sticky source-site label attached to detector reports
	lane     int    // ITS: lane attribution for scalar ops while diverged
	diverged bool

	req request

	// Baton hand-off state (see yield). serveEvent and resumeEvent are the
	// warp's event callbacks, built once so scheduling them allocates
	// nothing.
	wake        chan struct{}
	serveEvent  engine.Event
	resumeEvent engine.Event
	spawner     *Ctx // who startWarp's hand-back goes to (nil: Launch's goroutine)
	started     bool // the first request has been handed back to spawner
	slot        int  // index in Device.warps while the goroutine lives
	stop        bool // the launch failed: the woken goroutine exits (stopWarps)

	// Scratch buffers reused across vector ops to avoid per-op allocation.
	// Scalar ops use the dedicated one-element arrays so that a scalar
	// access never invalidates a LoadVec result the kernel still holds.
	addrBuf []mem.Addr
	outBuf  []uint32
	zeros   []uint32 // AtomicReadVec's operands; never written

	scAddr [1]mem.Addr
	scVal  [1]uint32
	scCmp  [1]uint32
	scOut  [1]uint32
}

// GlobalWarp returns a grid-unique warp id.
func (c *Ctx) GlobalWarp() int { return c.Block*c.Warps + c.Warp }

// Site sets the sticky source-site label attached to subsequent accesses
// in race reports. It returns the context for chaining.
func (c *Ctx) Site(s string) *Ctx {
	c.site = s
	return c
}

// AtLane attributes subsequent scalar operations to the given lane of a
// diverged warp (the ITS extension of Section VI). Call Converge to return
// to converged execution.
func (c *Ctx) AtLane(l int) *Ctx {
	if l < 0 || l >= c.WarpSize {
		panic(fmt.Sprintf("gpu: AtLane(%d) outside warp of %d", l, c.WarpSize))
	}
	c.lane = l
	c.diverged = true
	return c
}

// Converge marks the warp reconverged.
func (c *Ctx) Converge() { c.diverged = false; c.lane = 0 }

// --- baton hand-off -------------------------------------------------------

// yield hands the prepared request to the simulator and returns once the
// simulator resumes the warp; an exiting warp's goroutine ends instead,
// and so does one woken by a failed launch's stopWarps.
//
// The warp schedules its request's service, then runs the event loop
// itself until an event resumes a warp. If that is this warp, it returns
// with no goroutine switch; otherwise it passes the baton to the resumed
// warp and blocks until the baton comes back. The first request instead
// hands the baton back to the goroutine that started the warp: its
// startWarp call sits inside Launch or an event handler, which must
// finish before the next event runs.
func (c *Ctx) yield() {
	d := c.dev
	d.eng.After(0, c.serveEvent)
	var next *Ctx
	if c.started {
		next = d.drain()
		if next == c {
			return
		}
	} else {
		c.started = true
		next = c.spawner
	}
	if c.req.kind == reqExit {
		d.forget(c)
		d.pass(next)
		return
	}
	d.pass(next)
	d.wait(c)
	if c.stop {
		runtime.Goexit()
	}
}

// startWarp spawns the warp's goroutine and runs it until its first
// request, which it schedules before handing the baton back.
func (d *Device) startWarp(bs *blockState, warp int) {
	c := &Ctx{
		dev:      d,
		block:    bs,
		Block:    bs.id,
		Warp:     warp,
		WarpSize: d.cfg.WarpSize,
		Blocks:   d.gridBlocks,
		Warps:    d.warpsPerBlock,
		wake:     make(chan struct{}),
		spawner:  d.holder,
		slot:     len(d.warps),
	}
	c.serveEvent = func() { d.service(c) }
	c.resumeEvent = func() {
		d.active = c
		d.eng.Pause()
	}
	d.liveWarps++
	d.warps = append(d.warps, c)
	active := d.active
	d.holder, d.active = c, c
	go c.run()
	d.wait(c.spawner)
	if c.spawner != nil && c.spawner.stop {
		runtime.Goexit()
	}
	d.active = active
}

// run is the body of the warp's goroutine. A panic in the kernel, or in
// simulator code the warp runs while it holds the baton, goes to Launch's
// goroutine, which re-raises it.
func (c *Ctx) run() {
	d := c.dev
	defer func() {
		if r := recover(); r != nil {
			d.failure = d.blame(r)
			d.forget(c)
			d.pass(nil)
		}
	}()
	d.kernel(c)
	c.req = request{kind: reqExit}
	c.yield()
}

// --- memory operations ----------------------------------------------------

func (c *Ctx) issueMem(op memOp) {
	c.req = request{kind: reqMem, mem: op}
	c.yield()
}

func (c *Ctx) scalar(kind core.AccessKind, a mem.Addr, val, cmp uint32, aop core.AtomicOp, scope core.Scope, volatile bool) uint32 {
	c.scAddr[0], c.scVal[0], c.scCmp[0], c.scOut[0] = a, val, cmp, 0
	var cmps []uint32
	if aop == core.AtomicCAS {
		cmps = c.scCmp[:]
	}
	c.issueMem(memOp{
		kind: kind, atomicOp: aop, scope: scope, volatile: volatile,
		addrs: c.scAddr[:], vals: c.scVal[:], cmps: cmps, out: c.scOut[:],
	})
	return c.scOut[0]
}

// Load performs a weak (non-volatile) load: it may observe a stale value
// cached in the SM's L1.
func (c *Ctx) Load(a mem.Addr) uint32 {
	return c.scalar(core.KindLoad, a, 0, 0, core.AtomicOther, ScopeDevice, false)
}

// LoadV performs a volatile (strong) load that bypasses the L1.
func (c *Ctx) LoadV(a mem.Addr) uint32 {
	return c.scalar(core.KindLoad, a, 0, 0, core.AtomicOther, ScopeDevice, true)
}

// Store performs a weak store: the value lands in the SM-local L1 and is
// only guaranteed visible within the SM until a device-scope fence,
// eviction, or kernel end.
func (c *Ctx) Store(a mem.Addr, v uint32) {
	c.scalar(core.KindStore, a, v, 0, core.AtomicOther, ScopeDevice, false)
}

// StoreV performs a volatile (strong) store, written through to the shared
// L2 level.
func (c *Ctx) StoreV(a mem.Addr, v uint32) {
	c.scalar(core.KindStore, a, v, 0, core.AtomicOther, ScopeDevice, true)
}

// AtomicAdd atomically adds v at the given scope and returns the old value.
func (c *Ctx) AtomicAdd(a mem.Addr, v uint32, s Scope) uint32 {
	return c.scalar(core.KindAtomic, a, v, 0, core.AtomicOther, s, true)
}

// AtomicMax atomically stores max(old, v) and returns the old value.
func (c *Ctx) AtomicMax(a mem.Addr, v uint32, s Scope) uint32 {
	return c.scalar(core.KindAtomic, a, v, 0, core.AtomicMaxOp, s, true)
}

// AtomicCAS atomically replaces cmp with val, returning the old value. A
// CAS is also a candidate lock acquire for ScoRD's lock inference.
func (c *Ctx) AtomicCAS(a mem.Addr, cmp, val uint32, s Scope) uint32 {
	return c.scalar(core.KindAtomic, a, val, cmp, core.AtomicCAS, s, true)
}

// AtomicExch atomically swaps in v, returning the old value. An Exch is
// also a candidate lock release for ScoRD's lock inference.
func (c *Ctx) AtomicExch(a mem.Addr, v uint32, s Scope) uint32 {
	return c.scalar(core.KindAtomic, a, v, 0, core.AtomicExch, s, true)
}

// LoadVec loads one word per address, coalescing into line transactions.
// The returned slice is valid until the warp's next vector operation.
func (c *Ctx) LoadVec(addrs []mem.Addr, volatile bool) []uint32 {
	c.outBuf = grow(c.outBuf, len(addrs))
	c.issueMem(memOp{kind: core.KindLoad, volatile: volatile, addrs: addrs, out: c.outBuf})
	return c.outBuf
}

// StoreVec stores vals[i] to addrs[i], coalescing into line transactions.
func (c *Ctx) StoreVec(addrs []mem.Addr, vals []uint32, volatile bool) {
	if len(addrs) != len(vals) {
		panic("gpu: StoreVec length mismatch")
	}
	c.issueMem(memOp{kind: core.KindStore, volatile: volatile, addrs: addrs, vals: vals})
}

// AtomicAddVec performs one atomic add per lane (addrs[i] += vals[i]),
// coalescing into line transactions, and returns the old values. The
// returned slice is valid until the warp's next vector operation. Lanes
// must target distinct addresses.
func (c *Ctx) AtomicAddVec(addrs []mem.Addr, vals []uint32, s Scope) []uint32 {
	if len(addrs) != len(vals) {
		panic("gpu: AtomicAddVec length mismatch")
	}
	c.outBuf = grow(c.outBuf, len(addrs))
	c.issueMem(memOp{
		kind: core.KindAtomic, atomicOp: core.AtomicOther, scope: s, volatile: true,
		addrs: addrs, vals: vals, out: c.outBuf,
	})
	return c.outBuf
}

// AtomicMaxVec performs one atomic max per lane and returns the old
// values. The returned slice is valid until the warp's next vector
// operation.
func (c *Ctx) AtomicMaxVec(addrs []mem.Addr, vals []uint32, s Scope) []uint32 {
	if len(addrs) != len(vals) {
		panic("gpu: AtomicMaxVec length mismatch")
	}
	c.outBuf = grow(c.outBuf, len(addrs))
	c.issueMem(memOp{
		kind: core.KindAtomic, atomicOp: core.AtomicMaxOp, scope: s, volatile: true,
		addrs: addrs, vals: vals, out: c.outBuf,
	})
	return c.outBuf
}

// AtomicReadVec reads one word per lane with atomic semantics (the
// atomicAdd-of-zero idiom), used when the locations are concurrently
// updated by atomics. The returned slice is valid until the warp's next
// vector operation.
func (c *Ctx) AtomicReadVec(addrs []mem.Addr, s Scope) []uint32 {
	c.outBuf = grow(c.outBuf, len(addrs))
	for i := range c.outBuf {
		c.outBuf[i] = 0
	}
	c.zeros = grow(c.zeros, len(addrs))
	c.issueMem(memOp{
		kind: core.KindAtomic, atomicOp: core.AtomicOther, scope: s, volatile: true,
		addrs: addrs, vals: c.zeros, out: c.outBuf,
	})
	return c.outBuf
}

// Seq fills the context's address buffer with n consecutive word addresses
// starting at base — the fully-coalesced access pattern.
//
// The range must lie inside a single allocation; generating addresses past
// an allocation's end would silently alias whatever region was allocated
// next, turning an index bug into a phantom race report. Like AtLane and
// StoreVec, misuse panics with a description rather than propagating bad
// addresses into the simulation.
func (c *Ctx) Seq(base mem.Addr, n int) []mem.Addr {
	if n < 0 {
		panic(fmt.Sprintf("gpu: Seq(%#x, %d): negative length", uint64(base), n))
	}
	c.addrBuf = c.addrBuf[:0]
	if n == 0 {
		return c.addrBuf
	}
	al, ok := c.dev.mem.Locate(base)
	if !ok {
		panic(fmt.Sprintf("gpu: Seq(%#x, %d): base outside every allocation", uint64(base), n))
	}
	if end := uint64(base) + uint64(n)*mem.WordBytes; end > uint64(al.Base)+al.Size {
		panic(fmt.Sprintf("gpu: Seq(%#x, %d): range ends at %#x, past the end of %q (base %#x, %d bytes)",
			uint64(base), n, end, al.Name, uint64(al.Base), al.Size))
	}
	for i := 0; i < n; i++ {
		c.addrBuf = append(c.addrBuf, base+mem.Addr(i*mem.WordBytes))
	}
	return c.addrBuf
}

// --- synchronization -------------------------------------------------------

// Fence executes a memory fence of the given scope. A device-scope fence
// additionally writes back and invalidates the SM's L1, making the warp's
// prior weak stores globally visible (the HRF operational model).
func (c *Ctx) Fence(s Scope) {
	c.req = request{kind: reqFence, scope: s}
	c.yield()
}

// SyncThreads is the block-wide execution barrier (__syncthreads): every
// warp of the block waits, and the block's barrier ID advances, which the
// detector uses for the Table III (c) preliminary check.
func (c *Ctx) SyncThreads() {
	c.req = request{kind: reqBarrier}
	c.yield()
}

// Work advances the warp by n compute cycles without touching memory.
func (c *Ctx) Work(n int) {
	if n <= 0 {
		return
	}
	c.req = request{kind: reqWork, cycles: uint64(n)}
	c.yield()
}

// Acquire is the explicit PTX 6.0 acquire instruction (Section VI
// extension): an atomic read of the sync variable plus acquire ordering at
// the given scope. Requires Config.Detector.AcqRel for detection support.
func (c *Ctx) Acquire(a mem.Addr, s Scope) uint32 {
	v := c.scalar(core.KindAtomic, a, 0, 0, core.AtomicAcquire, s, true)
	return v
}

// Release is the explicit release instruction: release ordering plus an
// atomic write of the sync variable.
func (c *Ctx) Release(a mem.Addr, v uint32, s Scope) {
	c.scalar(core.KindAtomic, a, v, 0, core.AtomicRelease, s, true)
}

func grow(b []uint32, n int) []uint32 {
	if cap(b) < n {
		return make([]uint32, n)
	}
	return b[:n]
}
