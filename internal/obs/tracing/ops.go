package tracing

import (
	"fmt"
	"sort"

	"scord/internal/core"
	"scord/internal/tracefile"
)

// Builder folds the detector-facing memory-op stream into a cycle-domain
// span tree: kernel lifecycles, per-block barrier phases, per-warp
// check batches, and fence/alloc events. It is a pure function of the op
// stream — it implements the gpu.OpSink method set (by duck typing, so
// this package stays independent of the simulator), and FromOps drives
// the same logic from a recorded trace, so a live run and its replay
// produce byte-identical span trees.
type Builder struct {
	tr     *Tracer
	root   *Span
	kernel *Span
	// phases holds each block's current barrier-phase span, opened
	// lazily at the block's first op in the phase; phaseSeq counts
	// releases per block. Keys iterate only through sorted snapshots.
	phases   map[int]*Span
	phaseSeq map[int]int
	batches  map[batchKey]*batch
	kernels  int
}

type batchKey struct {
	block, warp int
}

// batch accumulates one run of consecutive accesses by a warp between
// synchronization points.
type batch struct {
	span     *Span
	accesses int
	last     uint64
}

// NewBuilder starts the cycle-domain trace of the run h describes. The
// trace ID hashes the benchmark name, config hash and seed, then each
// injection (none for a clean run), so a live run and the replay of its
// recording share one ID and injected runs differ from clean ones.
func NewBuilder(h tracefile.Header) *Builder {
	parts := []string{h.Benchmark, fmt.Sprintf("%016x", h.ConfigHash), fmt.Sprintf("%d", h.Seed)}
	tr := New(ClockCycles, DeriveTraceID(append(parts, h.Injections...)...), nil)
	return &Builder{
		tr:       tr,
		root:     tr.StartRootAt("run", 0),
		phases:   map[int]*Span{},
		phaseSeq: map[int]int{},
		batches:  map[batchKey]*batch{},
	}
}

// Tracer exposes the underlying tracer (for export).
func (b *Builder) Tracer() *Tracer { return b.tr }

// KernelStart opens a kernel span (gpu.OpSink).
func (b *Builder) KernelStart(name string, blocks, threads int, cycle uint64) {
	b.closeKernel(cycle)
	b.kernels++
	b.kernel = b.root.StartChildAt("kernel:"+name, cycle)
	b.kernel.SetAttr("blocks", itoa(blocks))
	b.kernel.SetAttr("threads", itoa(threads))
	b.kernel.SetAttr("launch", itoa(b.kernels))
}

// KernelEnd closes the kernel span and everything open under it
// (gpu.OpSink).
func (b *Builder) KernelEnd(name string, cycle uint64) {
	b.closeKernel(cycle)
}

// Alloc records a named device-memory allocation as a root-span event
// (gpu.OpSink).
func (b *Builder) Alloc(name string, base, size uint64) {
	b.root.AddEvent("alloc", 0,
		Attr{"name", name},
		Attr{"base", fmt.Sprintf("%#x", base)},
		Attr{"bytes", fmt.Sprintf("%d", size)})
}

// Access extends the issuing warp's current check batch (gpu.OpSink).
func (b *Builder) Access(a core.Access, aop core.AtomicOp, size uint32) {
	ph := b.phase(a.Block, a.Cycle)
	k := batchKey{a.Block, a.Warp}
	bt := b.batches[k]
	if bt == nil {
		bt = &batch{span: ph.StartChildAt("check-batch", a.Cycle)}
		bt.span.SetAttr("block", itoa(a.Block))
		bt.span.SetAttr("warp", itoa(a.Warp))
		b.batches[k] = bt
	}
	bt.accesses++
	bt.last = a.Cycle
}

// Fence breaks the issuing warp's check batch and records the fence as
// a phase event (gpu.OpSink).
func (b *Builder) Fence(block, warp int, scope core.Scope, cycle uint64, fromBarrier bool) {
	b.closeBatch(batchKey{block, warp}, cycle)
	if fromBarrier {
		// The per-warp barrier fences are implied by the barrier-release
		// event; recording each would only repeat it warps times.
		return
	}
	ph := b.phase(block, cycle)
	ph.AddEvent("fence", cycle,
		Attr{"scope", scope.String()},
		Attr{"warp", itoa(warp)})
}

// Barrier closes the block's barrier phase (gpu.OpSink).
func (b *Builder) Barrier(block int, id uint8, warps int, cycle uint64) {
	for _, k := range b.batchKeys() {
		if k.block == block {
			b.closeBatch(k, cycle)
		}
	}
	if ph := b.phases[block]; ph != nil {
		ph.SetAttr("released-warps", itoa(warps))
		ph.FinishAt(cycle)
		delete(b.phases, block)
	}
	b.phaseSeq[block] = int(id)
}

// Finish closes every open span at the final cycle and returns the
// tracer. Safe to call once at end of stream.
func (b *Builder) Finish(cycle uint64) *Tracer {
	b.closeKernel(cycle)
	b.root.FinishAt(cycle)
	return b.tr
}

func (b *Builder) phase(block int, cycle uint64) *Span {
	if b.kernel == nil {
		// Ops before any kernel marker (hand-built traces): hang the
		// phase off an implicit kernel span.
		b.KernelStart("(implicit)", 0, 0, cycle)
	}
	ph := b.phases[block]
	if ph == nil {
		ph = b.kernel.StartChildAt("barrier-phase", cycle)
		ph.SetAttr("block", itoa(block))
		ph.SetAttr("phase", itoa(b.phaseSeq[block]))
		b.phases[block] = ph
	}
	return ph
}

func (b *Builder) closeBatch(k batchKey, cycle uint64) {
	bt := b.batches[k]
	if bt == nil {
		return
	}
	bt.span.SetAttr("accesses", itoa(bt.accesses))
	end := bt.last
	if cycle > end {
		end = cycle
	}
	bt.span.FinishAt(end)
	delete(b.batches, k)
}

// batchKeys returns the open batch keys in sorted order so iteration
// during close-out is deterministic.
func (b *Builder) batchKeys() []batchKey {
	keys := make([]batchKey, 0, len(b.batches))
	for k := range b.batches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].warp < keys[j].warp
	})
	return keys
}

func (b *Builder) closeKernel(cycle uint64) {
	for _, k := range b.batchKeys() {
		b.closeBatch(k, cycle)
	}
	blocks := make([]int, 0, len(b.phases))
	for blk := range b.phases {
		blocks = append(blocks, blk)
	}
	sort.Ints(blocks)
	for _, blk := range blocks {
		b.phases[blk].FinishAt(cycle)
	}
	b.phases = map[int]*Span{}
	b.phaseSeq = map[int]int{}
	if b.kernel != nil {
		b.kernel.FinishAt(cycle)
		b.kernel = nil
	}
}

// FromOps rebuilds the cycle-domain span tree from a decoded trace. The
// result is byte-identical to the live run the trace was recorded from:
// both paths fold the same op stream through the same Builder.
func FromOps(h tracefile.Header, ops []tracefile.Op) *Tracer {
	b := NewBuilder(h)
	var last uint64
	for _, op := range ops {
		switch op.Kind {
		case tracefile.OpKernel:
			b.KernelStart(op.Name, op.Blocks, op.Threads, op.Cycle)
			last = op.Cycle
		case tracefile.OpKernelEnd:
			b.KernelEnd(op.Name, op.Cycle)
			last = op.Cycle
		case tracefile.OpAlloc:
			b.Alloc(op.Name, op.Base, op.Bytes)
		case tracefile.OpAccess:
			b.Access(op.Access, op.AtomicOp, op.Size)
			if op.Access.Cycle > last {
				last = op.Access.Cycle
			}
		case tracefile.OpFence:
			b.Fence(op.Block, op.Warp, op.Scope, op.Cycle, op.FromBarrier)
			if op.Cycle > last {
				last = op.Cycle
			}
		case tracefile.OpBarrier:
			b.Barrier(op.Block, op.BarrierID, op.Warps, op.Cycle)
			if op.Cycle > last {
				last = op.Cycle
			}
		}
	}
	b.Finish(last)
	return b.Tracer()
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
