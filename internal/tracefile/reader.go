package tracefile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"strings"

	"scord/internal/core"
)

// ErrCorrupt is wrapped by every structural decoding failure: bad magic,
// unknown versions or block kinds, CRC mismatches, bogus varints,
// out-of-range field values, and truncation in the middle of a record.
// Truncation additionally satisfies errors.Is(err, io.ErrUnexpectedEOF).
var ErrCorrupt = errors.New("tracefile: corrupt trace")

// Reader streams op records back out of a trace. It validates everything
// it decodes — block CRCs, varint shapes, enum ranges, access addresses
// against the header's device arena, string-table references, and the end
// block's op/kernel counts — and returns an error rather than panicking on
// any malformed input. Next returns io.EOF only after a well-formed end
// block; a stream that just stops yields ErrCorrupt/io.ErrUnexpectedEOF.
// ReadAll decodes the rest of the stream in one call, through the same
// checks.
type Reader struct {
	src    io.Reader // the stream NewReader was given
	br     *bufio.Reader
	header Header
	arena  uint64 // header's DeviceMemBytes; every access lies below it

	payload []byte // current ops-block payload (aliases scratch)
	pos     int
	scratch []byte // block buffer reused across readBlock calls

	strs []string // interned string table, mirrored from the writer

	prevCycle uint64
	prevAddr  uint64
	ops       uint64
	kernels   uint64

	done bool
	err  error
}

// NewReader parses the preamble and header block. The header's config
// hash is verified against its config, so a trace whose configuration was
// tampered with (or mis-stitched from another run) is rejected up front.
func NewReader(r io.Reader) (*Reader, error) {
	tr := &Reader{src: r, br: bufio.NewReader(r)}
	var pre [5]byte
	if _, err := io.ReadFull(tr.br, pre[:]); err != nil {
		return nil, corrupt("reading preamble: %v", err)
	}
	if string(pre[:4]) != magic {
		return nil, corrupt("bad magic %q", pre[:4])
	}
	if pre[4] != Version {
		return nil, corrupt("unsupported version %d (want %d)", pre[4], Version)
	}
	kind, payload, err := tr.readBlock()
	if err != nil {
		return nil, err
	}
	if kind != blockHeader {
		return nil, corrupt("first block is %q, want header", kind)
	}
	if err := json.Unmarshal(payload, &tr.header); err != nil {
		return nil, corrupt("decoding header: %v", err)
	}
	if tr.header.Version != Version {
		return nil, corrupt("header version %d disagrees with stream version %d", tr.header.Version, Version)
	}
	if got := HashConfig(tr.header.Config); got != tr.header.ConfigHash {
		return nil, corrupt("config hash mismatch: header says %#x, config hashes to %#x", tr.header.ConfigHash, got)
	}
	tr.arena = uint64(max(tr.header.Config.DeviceMemBytes, 0))
	return tr, nil
}

// Header returns the decoded trace header.
func (r *Reader) Header() Header { return r.header }

// Next decodes the next op record. It returns io.EOF after the end block
// has been seen and verified.
func (r *Reader) Next() (Op, error) {
	var op Op
	if err := r.more(); err != nil {
		return Op{}, err
	}
	if err := r.decodeNext(&op); err != nil {
		return Op{}, err
	}
	return op, nil
}

// ReadAll decodes every remaining op record into one slice, allocated
// once: it reads the rest of the encoded stream into memory (about a
// sixteenth of the decoded size), sizes the slice by the op count the end
// block declares, and decodes each record in place through the same
// checks Next applies, so it returns exactly the ops or the error a Next
// loop would. A count larger than the remaining bytes could hold is
// ignored and the slice grows as it decodes. After a valid trace
// cap(ops) == len(ops); an empty remainder decodes to nil.
func (r *Reader) ReadAll() ([]Op, error) {
	if r.err != nil || r.done {
		return nil, r.err
	}
	rest, err := r.readRest()
	src := io.Reader(bytes.NewReader(rest))
	if err != nil {
		// Decode what arrived; the read error surfaces where a Next
		// loop would have met it.
		src = io.MultiReader(src, errReader{err})
	}
	r.br.Reset(src)
	var ops []Op
	if n := r.remainingOps(rest); n > 0 {
		ops = make([]Op, 0, n)
	}
	for {
		if err := r.more(); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		// Every slot past len(ops) is still zero, as decodeNext needs.
		ops = slices.Grow(ops, 1)[:len(ops)+1]
		if err := r.decodeNext(&ops[len(ops)-1]); err != nil {
			return nil, err
		}
	}
}

// readRest reads the unread stream, in one allocation when the source
// can tell how much of it is left.
func (r *Reader) readRest() ([]byte, error) {
	size := r.br.Buffered()
	if l, ok := r.src.(interface{ Len() int }); ok { // bytes.Reader, bytes.Buffer, strings.Reader
		size += l.Len()
	}
	// The extra byte leaves room for the read that reports EOF.
	b := make([]byte, 0, size+1)
	for {
		n, err := r.br.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// remainingOps walks the block frames in rest to the end block and returns
// how many ops it declares beyond those already decoded. It returns 0 when
// the frames break off before an end block, or when the count exceeds what
// the unread bytes could hold at minRecordLen bytes per op.
func (r *Reader) remainingOps(rest []byte) int {
	unread := len(rest) + len(r.payload) - r.pos
	for b := rest; len(b) > 0; {
		n, k := binary.Uvarint(b[1:])
		if k <= 0 || n > maxBlockLen || n+4 > uint64(len(b)-1-k) {
			return 0
		}
		payload := b[1+k : 1+k+int(n)]
		if b[0] == blockEnd {
			want, _ := binary.Uvarint(payload)
			if want < r.ops || want-r.ops > uint64(unread/minRecordLen) {
				return 0
			}
			return int(want - r.ops)
		}
		b = b[1+k+int(n)+4:]
	}
	return 0
}

// errReader returns err on every read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// more loads ops blocks until a record is ready to decode. It returns
// io.EOF once the end block has been seen and verified.
func (r *Reader) more() error {
	if r.err != nil {
		return r.err
	}
	for !r.done && r.pos >= len(r.payload) {
		if err := r.nextBlock(); err != nil {
			r.err = err
			return err
		}
	}
	if r.done {
		return io.EOF
	}
	return nil
}

// decodeNext decodes the record more found into op, which must be zero,
// and counts it.
func (r *Reader) decodeNext(op *Op) error {
	if err := r.decodeOp(op); err != nil {
		r.err = err
		return err
	}
	r.ops++
	if op.Kind == OpKernel {
		r.kernels++
	}
	return nil
}

// nextBlock loads the next ops block, or verifies the end block and marks
// the stream done.
func (r *Reader) nextBlock() error {
	kind, payload, err := r.readBlock()
	if err != nil {
		return err
	}
	switch kind {
	case blockOps:
		if len(payload) == 0 {
			return corrupt("empty ops block")
		}
		r.payload = payload
		r.pos = 0
		return nil
	case blockEnd:
		wantOps, n := binary.Uvarint(payload)
		if n <= 0 {
			return corrupt("end block: bad op count")
		}
		wantKernels, m := binary.Uvarint(payload[n:])
		if m <= 0 || n+m != len(payload) {
			return corrupt("end block: bad kernel count")
		}
		if wantOps != r.ops || wantKernels != r.kernels {
			return corrupt("end block declares %d ops / %d kernels, decoded %d / %d",
				wantOps, wantKernels, r.ops, r.kernels)
		}
		if _, err := r.br.ReadByte(); err != io.EOF {
			return corrupt("trailing data after end block")
		}
		r.done = true
		return nil
	case blockHeader:
		return corrupt("duplicate header block")
	default:
		return corrupt("unknown block kind %#x", kind)
	}
}

// readBlock reads and CRC-verifies one framed block.
func (r *Reader) readBlock() (byte, []byte, error) {
	kind, err := r.br.ReadByte()
	if err != nil {
		return 0, nil, corrupt("reading block kind: %v", err)
	}
	n, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, nil, corrupt("reading block length: %v", err)
	}
	if n > maxBlockLen {
		return 0, nil, corrupt("block length %d exceeds limit %d", n, maxBlockLen)
	}
	// Reuse one scratch buffer across blocks: by the time the next block
	// is read, the previous payload is fully consumed (the header is
	// decoded eagerly and ops blocks are drained before nextBlock runs),
	// and everything that outlives a block — interned strings, site
	// labels — is copied out. A fresh make per block would let a hostile
	// or merely long stream drive allocation churn at up to maxBlockLen
	// per block. The leading byte holds the kind and the 4 trailing bytes
	// the stored CRC, so the whole frame reads and checksums without any
	// per-block temporaries escaping to the heap.
	if uint64(cap(r.scratch)) < n+5 {
		// 25% headroom so ops blocks whose sizes jitter around flushLen
		// settle into one buffer instead of reallocating every few blocks.
		grow := n + n/4 + 5
		if grow > maxBlockLen+5 {
			grow = maxBlockLen + 5
		}
		r.scratch = make([]byte, grow)
	}
	frame := r.scratch[:n+5]
	frame[0] = kind
	if _, err := io.ReadFull(r.br, frame[1:]); err != nil {
		return 0, nil, corrupt("reading %d-byte block payload: %v", n, err)
	}
	payload := frame[1 : n+1]
	crc := crc32.Update(0, castagnoli, frame[:n+1])
	if got := binary.LittleEndian.Uint32(frame[n+1:]); got != crc {
		return 0, nil, corrupt("block %q checksum mismatch: stored %#x, computed %#x", kind, got, crc)
	}
	return kind, payload, nil
}

// decodeOp decodes one record from the current payload into op, which
// must be zero: only the fields the record's kind uses are written.
func (r *Reader) decodeOp(op *Op) error {
	kind, err := r.byte("op kind")
	if err != nil {
		return err
	}
	switch kind {
	case opAccess:
		return r.decodeAccess(op)
	case opFence:
		return r.decodeFence(op)
	case opBarrier:
		return r.decodeBarrier(op)
	case opKernel:
		op.Kind = OpKernel
		if op.Name, err = r.string("kernel name"); err != nil {
			return err
		}
		if op.Blocks, err = r.intField("kernel blocks"); err != nil {
			return err
		}
		if op.Threads, err = r.intField("kernel threads"); err != nil {
			return err
		}
		op.Cycle, err = r.cycle()
		return err
	case opKernelEnd:
		op.Kind = OpKernelEnd
		if op.Name, err = r.string("kernel name"); err != nil {
			return err
		}
		op.Cycle, err = r.cycle()
		return err
	case opAlloc:
		op.Kind = OpAlloc
		if op.Name, err = r.string("alloc name"); err != nil {
			return err
		}
		if op.Base, err = r.uvarint("alloc base"); err != nil {
			return err
		}
		op.Bytes, err = r.uvarint("alloc size")
		return err
	default:
		return corrupt("unknown op kind %#x at payload offset %d", kind, r.pos-1)
	}
}

func (r *Reader) decodeAccess(op *Op) error {
	flags, err := r.byte("access flags")
	if err != nil {
		return err
	}
	if flags&accKindMask > uint8(core.KindAtomic) {
		return corrupt("access kind %d out of range", flags&accKindMask)
	}
	aop := uint64(flags >> accAopShift)
	if aop > maxAtomicOp {
		return corrupt("atomic op %d out of range", aop)
	}
	op.Kind = OpAccess
	op.AtomicOp = core.AtomicOp(aop)
	a := &op.Access
	a.Kind = core.AccessKind(flags & accKindMask)
	if flags&accScopeDev != 0 {
		a.Scope = core.ScopeDevice
	}
	a.Strong = flags&accStrong != 0
	a.Diverged = flags&accDiverged != 0
	if a.Block, err = r.intField("access block"); err != nil {
		return err
	}
	if a.Warp, err = r.intField("access warp"); err != nil {
		return err
	}
	if a.Barrier, err = r.byte("access barrier"); err != nil {
		return err
	}
	if a.Lane, err = r.intField("access lane"); err != nil {
		return err
	}
	addrDelta, err := r.svarint("access addr delta")
	if err != nil {
		return err
	}
	a.Addr = r.prevAddr + uint64(addrDelta)
	r.prevAddr = a.Addr
	if a.Addr >= r.arena {
		// A live device cannot issue it (mem.WordIndex panics first), and
		// replay sizes detector metadata by the arena.
		return corrupt("access address %#x outside the %d-byte device arena", a.Addr, r.arena)
	}
	if a.Cycle, err = r.cycle(); err != nil {
		return err
	}
	if a.Site, err = r.string("access site"); err != nil {
		return err
	}
	size, err := r.uvarint("access size")
	if err != nil {
		return err
	}
	if size > 1<<16 {
		return corrupt("access size %d out of range", size)
	}
	op.Size = uint32(size)
	return nil
}

func (r *Reader) decodeFence(op *Op) error {
	flags, err := r.byte("fence flags")
	if err != nil {
		return err
	}
	if flags&^(fenceScopeDev|fenceFromBarrier) != 0 {
		return corrupt("fence flags %#x have unknown bits", flags)
	}
	op.Kind = OpFence
	if flags&fenceScopeDev != 0 {
		op.Scope = core.ScopeDevice
	}
	op.FromBarrier = flags&fenceFromBarrier != 0
	if op.Block, err = r.intField("fence block"); err != nil {
		return err
	}
	if op.Warp, err = r.intField("fence warp"); err != nil {
		return err
	}
	op.Cycle, err = r.cycle()
	return err
}

func (r *Reader) decodeBarrier(op *Op) error {
	var err error
	op.Kind = OpBarrier
	if op.Block, err = r.intField("barrier block"); err != nil {
		return err
	}
	if op.BarrierID, err = r.byte("barrier id"); err != nil {
		return err
	}
	if op.Warps, err = r.intField("barrier warps"); err != nil {
		return err
	}
	op.Cycle, err = r.cycle()
	return err
}

// --- low-level field decoders, all bounds-checked ---

func (r *Reader) byte(what string) (byte, error) {
	if r.pos >= len(r.payload) {
		return 0, corrupt("%s: record truncated at payload end", what)
	}
	b := r.payload[r.pos]
	r.pos++
	return b, nil
}

func (r *Reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.payload[r.pos:])
	if n <= 0 {
		return 0, corrupt("%s: bad varint at payload offset %d", what, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *Reader) svarint(what string) (int64, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	return unzigzag(v), nil
}

// intField decodes a uvarint that must fit a non-negative int.
func (r *Reader) intField(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > 1<<31 {
		return 0, corrupt("%s: value %d out of range", what, v)
	}
	return int(v), nil
}

func (r *Reader) cycle() (uint64, error) {
	d, err := r.svarint("cycle delta")
	if err != nil {
		return 0, err
	}
	c := r.prevCycle + uint64(d)
	r.prevCycle = c
	return c, nil
}

// string decodes a string reference against the interning table.
func (r *Reader) string(what string) (string, error) {
	idx, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	switch {
	case idx == 0:
		return "", nil
	case idx <= uint64(len(r.strs)):
		return r.strs[idx-1], nil
	case idx == uint64(len(r.strs))+1:
		n, err := r.uvarint(what + " length")
		if err != nil {
			return "", err
		}
		if n == 0 || n > maxStringLen {
			return "", corrupt("%s: interned string length %d out of range", what, n)
		}
		if r.pos+int(n) > len(r.payload) {
			return "", corrupt("%s: interned string truncated at payload end", what)
		}
		s := string(r.payload[r.pos : r.pos+int(n)])
		r.pos += int(n)
		r.strs = append(r.strs, s)
		return s, nil
	default:
		return "", corrupt("%s: string reference %d beyond table size %d", what, idx, len(r.strs))
	}
}

// corrupt builds an ErrCorrupt-wrapped error; truncation detail also
// carries io.ErrUnexpectedEOF so callers can distinguish a cut-off file
// from active corruption.
func corrupt(format string, args ...any) error {
	err := fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	msg := err.Error()
	if strings.Contains(msg, io.EOF.Error()) || strings.Contains(msg, "truncated") {
		return fmt.Errorf("%w (%w)", err, io.ErrUnexpectedEOF)
	}
	return err
}
