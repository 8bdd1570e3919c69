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

	ctls     []Control // unused rest of the current Control chunk
	controls int       // Controls allocated in chunks so far
	spare    Control   // the Control of a record ReadAll does not keep

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
	if err := r.decodeNext(&op, controlChunk); err != nil {
		return Op{}, err
	}
	return op, nil
}

// ReadAll decodes every remaining op record into one slice, allocated
// once: it reads the rest of the encoded stream into memory (about a
// sixteenth of the decoded size), sizes the slice by the op count the end
// block declares, and decodes each record in place through the same
// checks Next applies, so it returns exactly the ops or the error a Next
// loop would. It never allocates room for more ops, or more Controls, than
// that count (none when the count is larger than the remaining bytes could
// hold): records beyond it can only end in the end block's count error, so
// they are decoded and counted but not kept. After a valid trace cap(ops)
// == len(ops); an empty remainder decodes to nil.
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
	var extra Op
	for {
		if err := r.more(); err == io.EOF {
			return ops, nil
		} else if err != nil {
			return nil, err
		}
		op, room := &extra, 0
		if len(ops) < cap(ops) {
			// Every slot past len(ops) is still zero, as decodeNext needs.
			ops = ops[:len(ops)+1]
			op, room = &ops[len(ops)-1], cap(ops)-len(ops)+1
		} else {
			extra = Op{}
		}
		if err := r.decodeNext(op, room); err != nil {
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
	return plausibleOps(rest, r.ops, len(rest)+len(r.payload)-r.pos)
}

// DeclaredOps returns the op count the end block of the encoded trace raw
// declares, found by walking its block frames without checking them. It
// returns 0 when the frames break off before an end block, or when raw
// could not hold that many ops. ReadAll on a new Reader over raw never
// allocates room for more ops than this, and decodes exactly this many
// from a valid trace, so a caller can account for the decoded slice
// before it exists.
func DeclaredOps(raw []byte) int {
	if len(raw) < len(magic)+1 {
		return 0
	}
	frames := raw[len(magic)+1:]
	return plausibleOps(frames, 0, len(frames))
}

// plausibleOps walks the block frames in b to the end block and returns
// its op count less decoded, or 0 when there is no end block or the
// remainder exceeds what unread bytes could hold.
func plausibleOps(b []byte, decoded uint64, unread int) int {
	for len(b) > 0 {
		n, k := binary.Uvarint(b[1:])
		if k <= 0 || n > maxBlockLen || n+4 > uint64(len(b)-1-k) {
			return 0
		}
		payload := b[1+k : 1+k+int(n)]
		if b[0] == blockEnd {
			want, _ := binary.Uvarint(payload)
			if want < decoded || want-decoded > uint64(unread/minRecordLen) {
				return 0
			}
			return int(want - decoded)
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

// Controls returns how many Controls the Reader has allocated for the ops
// it returned. They come in chunks, and this counts the unused rest of the
// last one too: an op that keeps a Control keeps its whole chunk.
func (r *Reader) Controls() int { return r.controls }

// controlChunk is the most Controls the Reader allocates at once.
const controlChunk = 64

// control returns a zero Control for the record being decoded. room is how
// many ops, this one included, may still keep one, and bounds a new chunk;
// 0 hands out the Reader's spare, for a record ReadAll does not keep.
func (r *Reader) control(room int) *Control {
	if room == 0 {
		r.spare = Control{}
		return &r.spare
	}
	if len(r.ctls) == 0 {
		r.ctls = make([]Control, min(room, controlChunk))
		r.controls += len(r.ctls)
	}
	c := &r.ctls[0]
	r.ctls = r.ctls[1:]
	return c
}

// decodeNext decodes the record more found into op, which must be zero,
// and counts it. room bounds the Controls it may allocate (control).
func (r *Reader) decodeNext(op *Op, room int) error {
	if err := r.decodeOp(op, room); err != nil {
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
	// The checked CRC's first byte becomes the sentinel cursor reads past
	// the payload's end.
	frame[n+1] = sentinel
	return kind, payload, nil
}

// decodeOp decodes one record from the current payload into op, which
// must be zero: only the fields the record's kind uses are written. room
// bounds the Controls a kernel, kernel-end, alloc or barrier record may
// allocate (control).
func (r *Reader) decodeOp(op *Op, room int) error {
	c := cursor{b: r.payload[:len(r.payload)+1], pos: r.pos, end: len(r.payload)}
	switch kind := c.byte("op kind"); kind {
	case opAccess:
		r.decodeAccess(&c, op)
	case opFence:
		r.decodeFence(&c, op)
	case opBarrier:
		r.decodeBarrier(&c, op, r.control(room))
	case opKernel:
		r.decodeKernel(&c, op, r.control(room))
	case opKernelEnd:
		r.decodeKernelEnd(&c, op, r.control(room))
	case opAlloc:
		r.decodeAlloc(&c, op, r.control(room))
	default:
		c.failf("unknown op kind %#x at payload offset %d", kind, c.pos-1)
	}
	r.pos = c.pos
	return c.err
}

func (r *Reader) decodeAccess(c *cursor, op *Op) {
	flags := c.byte("access flags")
	if flags&accKindMask > uint8(core.KindAtomic) {
		c.failf("access kind %d out of range", flags&accKindMask)
	}
	aop := flags >> accAopShift
	if uint64(aop) > maxAtomicOp {
		c.failf("atomic op %d out of range", aop)
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
	a.Block = c.int("access block")
	a.Warp = c.int("access warp")
	a.Barrier = c.byte("access barrier")
	a.Lane = c.int("access lane")
	a.Addr = r.prevAddr + uint64(unzigzag(c.uvarint("access addr delta")))
	r.prevAddr = a.Addr
	if a.Addr >= r.arena {
		// A live device cannot issue it (mem.WordIndex panics first), and
		// replay sizes detector metadata by the arena.
		c.failf("access address %#x outside the %d-byte device arena", a.Addr, r.arena)
	}
	a.Cycle = r.cycle(c)
	a.Site = r.string(c, "access site")
	size := c.uvarint("access size")
	if size > 1<<16 {
		c.failf("access size %d out of range", size)
	}
	op.Size = uint32(size)
}

func (r *Reader) decodeFence(c *cursor, op *Op) {
	flags := c.byte("fence flags")
	if flags&^(fenceScopeDev|fenceFromBarrier) != 0 {
		c.failf("fence flags %#x have unknown bits", flags)
	}
	op.Kind = OpFence
	if flags&fenceScopeDev != 0 {
		op.Scope = core.ScopeDevice
	}
	op.FromBarrier = flags&fenceFromBarrier != 0
	op.Block = c.int("fence block")
	op.Warp = c.int("fence warp")
	op.Cycle = r.cycle(c)
}

func (r *Reader) decodeBarrier(c *cursor, op *Op, ctl *Control) {
	op.Kind = OpBarrier
	op.Control = ctl
	op.Block = c.int("barrier block")
	op.BarrierID = c.byte("barrier id")
	ctl.Warps = c.int("barrier warps")
	op.Cycle = r.cycle(c)
}

func (r *Reader) decodeKernel(c *cursor, op *Op, ctl *Control) {
	op.Kind = OpKernel
	op.Control = ctl
	ctl.Name = r.string(c, "kernel name")
	ctl.Blocks = c.int("kernel blocks")
	ctl.Threads = c.int("kernel threads")
	op.Cycle = r.cycle(c)
}

func (r *Reader) decodeKernelEnd(c *cursor, op *Op, ctl *Control) {
	op.Kind = OpKernelEnd
	op.Control = ctl
	ctl.Name = r.string(c, "kernel name")
	op.Cycle = r.cycle(c)
}

func (r *Reader) decodeAlloc(c *cursor, op *Op, ctl *Control) {
	op.Kind = OpAlloc
	op.Control = ctl
	ctl.Name = r.string(c, "alloc name")
	ctl.Base = c.uvarint("alloc base")
	ctl.Bytes = c.uvarint("alloc size")
}

// cycle decodes a cycle delta against the previous record's cycle.
func (r *Reader) cycle(c *cursor) uint64 {
	r.prevCycle += uint64(unzigzag(c.uvarint("cycle delta")))
	return r.prevCycle
}

// string decodes a string reference against the interning table.
func (r *Reader) string(c *cursor, what string) string {
	idx := c.uvarint(what)
	if idx-1 < uint64(len(r.strs)) {
		return r.strs[idx-1]
	}
	if idx == 0 {
		return ""
	}
	return r.intern(c, idx, what)
}

// intern decodes the string that reference idx introduces inline and
// appends it to the interning table.
func (r *Reader) intern(c *cursor, idx uint64, what string) string {
	if idx != uint64(len(r.strs))+1 {
		c.failf("%s: string reference %d beyond table size %d", what, idx, len(r.strs))
		return ""
	}
	n := c.uvarint(what + " length")
	if n == 0 || n > maxStringLen {
		c.failf("%s: interned string length %d out of range", what, n)
		return ""
	}
	if c.pos+int(n) > c.end {
		c.failf("%s: interned string truncated at payload end", what)
		return ""
	}
	s := string(c.b[c.pos : c.pos+int(n)])
	c.pos += int(n)
	r.strs = append(r.strs, s)
	return s
}

// cursor reads the fields of one op record from an ops-block payload,
// b[:end]. Every read is bounds-checked, and the first failure sticks: it
// is kept in err, the record ends there, and every later read returns
// zero. So a record decoder reads its fields and checks their values in
// order, and the record's error is the first check it failed, as if it had
// stopped there. The one-byte reads are small enough to inline; longer
// varints and the error text are built out of line. b holds one byte past
// the payload, a sentinel readBlock stores, which no one-byte varint
// matches: a varint read at the payload's end takes the out-of-line path,
// which reports it, so the inline path needs no bounds test of its own.
type cursor struct {
	b   []byte // the payload and its sentinel
	pos int
	end int // the payload's length
	err error
}

// sentinel follows every ops-block payload: the first byte of a longer
// varint, never a whole one.
const sentinel = 0x80

func (c *cursor) byte(what string) (v byte) {
	if c.pos < c.end {
		v = c.b[c.pos]
		c.pos++
		return
	}
	c.truncated(what)
	return
}

// truncated fails a byte read at the payload's end. It is a call of its
// own, not failf inline, so that byte stays small enough to inline.
func (c *cursor) truncated(what string) {
	c.failf("%s: record truncated at payload end", what)
}

func (c *cursor) uvarint(what string) (v uint64) {
	if v = uint64(c.b[c.pos]); v < 0x80 {
		c.pos++
		return
	}
	return c.uvarintLong(what)
}

// uvarintLong decodes a varint longer than one byte.
func (c *cursor) uvarintLong(what string) uint64 {
	v, n := binary.Uvarint(c.b[c.pos:c.end])
	if n <= 0 {
		c.failf("%s: bad varint at payload offset %d", what, c.pos)
		return 0
	}
	c.pos += n
	return v
}

// int decodes a uvarint that must fit a non-negative int.
func (c *cursor) int(what string) (v int) {
	if v = int(c.b[c.pos]); v < 0x80 {
		c.pos++
		return
	}
	return c.intLong(what)
}

func (c *cursor) intLong(what string) int {
	v := c.uvarintLong(what)
	if v > 1<<31 {
		c.failf("%s: value %d out of range", what, v)
		return 0
	}
	return int(v)
}

// failf ends the record with a corrupt-trace error, unless an earlier
// read or check already failed it.
func (c *cursor) failf(format string, args ...any) {
	if c.err == nil {
		c.err = corrupt(format, args...)
	}
	c.pos = c.end
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
