package tracefile

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"scord/internal/core"
)

// castagnoli is the CRC-32C table shared by Writer and Reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer streams trace records to an io.Writer. It satisfies gpu.OpSink,
// so a device records by simply attaching it. Records accumulate in a
// reusable payload buffer and flush as a CRC-checked ops block every
// flushLen bytes; steady-state recording performs no per-op allocation.
//
// Errors latch: after the first underlying write failure every method is a
// no-op and Err (and Close) report the failure. The caller must Close to
// emit the end block — a trace without one reads back as truncated.
type Writer struct {
	w       io.Writer
	header  Header
	buf     []byte // pending ops-block payload
	scratch []byte // assembled block (kind + len + payload + crc)

	strs map[string]uint64 // interned string -> 1-based table index

	prevCycle uint64
	prevAddr  uint64
	ops       uint64
	kernels   uint64

	err    error
	closed bool
}

// NewWriter writes the magic, version and header block and returns a
// Writer ready to record ops. The header's Version is stamped to the
// current format version; its ConfigHash is recomputed so header and
// config can never disagree.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	h.Version = Version
	h.ConfigHash = HashConfig(h.Config)
	tw := &Writer{
		w:      w,
		header: h,
		buf:    make([]byte, 0, flushLen+256),
		strs:   make(map[string]uint64),
	}
	if _, err := w.Write([]byte{magic[0], magic[1], magic[2], magic[3], Version}); err != nil {
		return nil, fmt.Errorf("tracefile: writing preamble: %w", err)
	}
	hdr, err := marshalHeader(h)
	if err != nil {
		return nil, err
	}
	if err := tw.writeBlock(blockHeader, hdr); err != nil {
		return nil, err
	}
	return tw, nil
}

// Header returns the header the trace was opened with (version and config
// hash stamped).
func (w *Writer) Header() Header { return w.header }

// Err returns the first underlying error, if any.
func (w *Writer) Err() error { return w.err }

// Ops returns the number of op records written so far.
func (w *Writer) Ops() uint64 { return w.ops }

// Close flushes pending ops and writes the end block. It does not close
// the underlying writer. Close is idempotent; later op calls are dropped.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.flush(); err != nil {
		return err
	}
	var end []byte
	end = binary.AppendUvarint(end, w.ops)
	end = binary.AppendUvarint(end, w.kernels)
	return w.writeBlock(blockEnd, end)
}

// KernelStart records a kernel-launch marker (gpu.OpSink).
func (w *Writer) KernelStart(name string, blocks, threads int, cycle uint64) {
	if w.dead() {
		return
	}
	w.kernels++
	w.buf = append(w.buf, opKernel)
	w.putString(name)
	w.buf = binary.AppendUvarint(w.buf, uint64(blocks))
	w.buf = binary.AppendUvarint(w.buf, uint64(threads))
	w.putCycle(cycle)
	w.endOp()
}

// KernelEnd records a kernel-completion marker (gpu.OpSink).
func (w *Writer) KernelEnd(name string, cycle uint64) {
	if w.dead() {
		return
	}
	w.buf = append(w.buf, opKernelEnd)
	w.putString(name)
	w.putCycle(cycle)
	w.endOp()
}

// Alloc records one named device-memory allocation (gpu.OpSink).
func (w *Writer) Alloc(name string, base, size uint64) {
	if w.dead() {
		return
	}
	w.buf = append(w.buf, opAlloc)
	w.putString(name)
	w.buf = binary.AppendUvarint(w.buf, base)
	w.buf = binary.AppendUvarint(w.buf, size)
	w.endOp()
}

// Access flag bits (low nibble + diverged); the atomic op rides in the
// top three bits.
const (
	accKindMask  = 0b11
	accScopeDev  = 1 << 2
	accStrong    = 1 << 3
	accDiverged  = 1 << 4
	accAopShift  = 5
	maxAtomicOp  = uint64(core.AtomicRelease)
	maxScopeByte = uint64(core.ScopeDevice)
)

// Access records one lane-level access in detector presentation order
// (gpu.OpSink). size is the access width in bytes.
func (w *Writer) Access(a core.Access, aop core.AtomicOp, size uint32) {
	if w.dead() {
		return
	}
	flags := byte(a.Kind) & accKindMask
	if a.Scope == core.ScopeDevice {
		flags |= accScopeDev
	}
	if a.Strong {
		flags |= accStrong
	}
	if a.Diverged {
		flags |= accDiverged
	}
	flags |= byte(aop) << accAopShift
	w.buf = append(w.buf, opAccess, flags)
	w.buf = binary.AppendUvarint(w.buf, uint64(a.Block))
	w.buf = binary.AppendUvarint(w.buf, uint64(a.Warp))
	w.buf = append(w.buf, a.Barrier)
	w.buf = binary.AppendUvarint(w.buf, uint64(a.Lane))
	w.buf = binary.AppendUvarint(w.buf, zigzag(int64(a.Addr-w.prevAddr)))
	w.prevAddr = a.Addr
	w.putCycle(a.Cycle)
	w.putString(a.Site)
	w.buf = binary.AppendUvarint(w.buf, uint64(size))
	w.endOp()
}

// Fence flag bits.
const (
	fenceScopeDev    = 1 << 0
	fenceFromBarrier = 1 << 1
)

// Fence records a scoped fence by one warp (gpu.OpSink). fromBarrier
// marks the implicit block-scope fence of a barrier release.
func (w *Writer) Fence(block, warp int, scope core.Scope, cycle uint64, fromBarrier bool) {
	if w.dead() {
		return
	}
	var flags byte
	if scope == core.ScopeDevice {
		flags |= fenceScopeDev
	}
	if fromBarrier {
		flags |= fenceFromBarrier
	}
	w.buf = append(w.buf, opFence, flags)
	w.buf = binary.AppendUvarint(w.buf, uint64(block))
	w.buf = binary.AppendUvarint(w.buf, uint64(warp))
	w.putCycle(cycle)
	w.endOp()
}

// Barrier records a barrier-release marker (gpu.OpSink).
func (w *Writer) Barrier(block int, id uint8, warps int, cycle uint64) {
	if w.dead() {
		return
	}
	w.buf = append(w.buf, opBarrier)
	w.buf = binary.AppendUvarint(w.buf, uint64(block))
	w.buf = append(w.buf, id)
	w.buf = binary.AppendUvarint(w.buf, uint64(warps))
	w.putCycle(cycle)
	w.endOp()
}

func (w *Writer) dead() bool { return w.err != nil || w.closed }

// endOp finishes one op record: counts it and flushes a full payload.
func (w *Writer) endOp() {
	w.ops++
	if len(w.buf) >= flushLen {
		w.flush()
	}
}

// putCycle appends the zigzag cycle delta against the previous record.
func (w *Writer) putCycle(cycle uint64) {
	w.buf = binary.AppendUvarint(w.buf, zigzag(int64(cycle-w.prevCycle)))
	w.prevCycle = cycle
}

// putString appends a string reference, interning new strings into the
// shared table. 0 is the empty string; 1..len(table) are back-references;
// len(table)+1 introduces the next table entry inline. A string longer
// than maxStringLen is stored as its prefix but interned under its full
// value, so every later use finds it.
func (w *Writer) putString(s string) {
	if s == "" {
		w.buf = append(w.buf, 0)
		return
	}
	if idx, ok := w.strs[s]; ok {
		w.buf = binary.AppendUvarint(w.buf, idx)
		return
	}
	idx := uint64(len(w.strs) + 1)
	w.strs[s] = idx
	if len(s) > maxStringLen {
		s = s[:maxStringLen]
	}
	w.buf = binary.AppendUvarint(w.buf, idx)
	w.buf = binary.AppendUvarint(w.buf, uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// flush writes the pending payload as one ops block.
func (w *Writer) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.writeBlock(blockOps, w.buf)
	w.buf = w.buf[:0]
	return err
}

// writeBlock frames and CRCs one block and writes it in a single call.
func (w *Writer) writeBlock(kind byte, payload []byte) error {
	if w.err != nil {
		return w.err
	}
	w.scratch = w.scratch[:0]
	w.scratch = append(w.scratch, kind)
	w.scratch = binary.AppendUvarint(w.scratch, uint64(len(payload)))
	w.scratch = append(w.scratch, payload...)
	crc := crc32.Update(0, castagnoli, w.scratch[:1])
	crc = crc32.Update(crc, castagnoli, payload)
	w.scratch = binary.LittleEndian.AppendUint32(w.scratch, crc)
	if _, err := w.w.Write(w.scratch); err != nil {
		w.err = fmt.Errorf("tracefile: writing block: %w", err)
	}
	return w.err
}
