package tracefile

import (
	"bufio"
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
type Reader struct {
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
	tr := &Reader{br: bufio.NewReader(r)}
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
	if r.err != nil {
		return Op{}, r.err
	}
	if r.done {
		return Op{}, io.EOF
	}
	for r.pos >= len(r.payload) {
		if err := r.nextBlock(); err != nil {
			r.err = err
			return Op{}, err
		}
		if r.done {
			return Op{}, io.EOF
		}
	}
	op, err := r.decodeOp()
	if err != nil {
		r.err = err
		return Op{}, err
	}
	r.ops++
	if op.Kind == OpKernel {
		r.kernels++
	}
	return op, nil
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

// decodeOp decodes one record from the current payload.
func (r *Reader) decodeOp() (Op, error) {
	kind, err := r.byte("op kind")
	if err != nil {
		return Op{}, err
	}
	switch kind {
	case opAccess:
		return r.decodeAccess()
	case opFence:
		return r.decodeFence()
	case opBarrier:
		return r.decodeBarrier()
	case opKernel:
		name, err := r.string("kernel name")
		if err != nil {
			return Op{}, err
		}
		blocks, err := r.intField("kernel blocks")
		if err != nil {
			return Op{}, err
		}
		threads, err := r.intField("kernel threads")
		if err != nil {
			return Op{}, err
		}
		cycle, err := r.cycle()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpKernel, Name: name, Blocks: blocks, Threads: threads, Cycle: cycle}, nil
	case opKernelEnd:
		name, err := r.string("kernel name")
		if err != nil {
			return Op{}, err
		}
		cycle, err := r.cycle()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpKernelEnd, Name: name, Cycle: cycle}, nil
	case opAlloc:
		name, err := r.string("alloc name")
		if err != nil {
			return Op{}, err
		}
		base, err := r.uvarint("alloc base")
		if err != nil {
			return Op{}, err
		}
		size, err := r.uvarint("alloc size")
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: OpAlloc, Name: name, Base: base, Bytes: size}, nil
	default:
		return Op{}, corrupt("unknown op kind %#x at payload offset %d", kind, r.pos-1)
	}
}

func (r *Reader) decodeAccess() (Op, error) {
	flags, err := r.byte("access flags")
	if err != nil {
		return Op{}, err
	}
	if flags&accKindMask > uint8(core.KindAtomic) {
		return Op{}, corrupt("access kind %d out of range", flags&accKindMask)
	}
	aop := uint64(flags >> accAopShift)
	if aop > maxAtomicOp {
		return Op{}, corrupt("atomic op %d out of range", aop)
	}
	block, err := r.intField("access block")
	if err != nil {
		return Op{}, err
	}
	warp, err := r.intField("access warp")
	if err != nil {
		return Op{}, err
	}
	barrier, err := r.byte("access barrier")
	if err != nil {
		return Op{}, err
	}
	lane, err := r.intField("access lane")
	if err != nil {
		return Op{}, err
	}
	addrDelta, err := r.svarint("access addr delta")
	if err != nil {
		return Op{}, err
	}
	addr := r.prevAddr + uint64(addrDelta)
	r.prevAddr = addr
	if addr >= r.arena {
		// A live device cannot issue it (mem.WordIndex panics first), and
		// replay sizes detector metadata by the arena.
		return Op{}, corrupt("access address %#x outside the %d-byte device arena", addr, r.arena)
	}
	cycle, err := r.cycle()
	if err != nil {
		return Op{}, err
	}
	site, err := r.string("access site")
	if err != nil {
		return Op{}, err
	}
	size, err := r.uvarint("access size")
	if err != nil {
		return Op{}, err
	}
	if size > 1<<16 {
		return Op{}, corrupt("access size %d out of range", size)
	}
	scope := core.ScopeBlock
	if flags&accScopeDev != 0 {
		scope = core.ScopeDevice
	}
	return Op{
		Kind: OpAccess,
		Access: core.Access{
			Kind:     core.AccessKind(flags & accKindMask),
			Scope:    scope,
			Strong:   flags&accStrong != 0,
			Addr:     addr,
			Block:    block,
			Warp:     warp,
			Barrier:  barrier,
			Site:     site,
			Cycle:    cycle,
			Lane:     lane,
			Diverged: flags&accDiverged != 0,
		},
		AtomicOp: core.AtomicOp(aop),
		Size:     uint32(size),
	}, nil
}

func (r *Reader) decodeFence() (Op, error) {
	flags, err := r.byte("fence flags")
	if err != nil {
		return Op{}, err
	}
	if flags&^(fenceScopeDev|fenceFromBarrier) != 0 {
		return Op{}, corrupt("fence flags %#x have unknown bits", flags)
	}
	block, err := r.intField("fence block")
	if err != nil {
		return Op{}, err
	}
	warp, err := r.intField("fence warp")
	if err != nil {
		return Op{}, err
	}
	cycle, err := r.cycle()
	if err != nil {
		return Op{}, err
	}
	scope := core.ScopeBlock
	if flags&fenceScopeDev != 0 {
		scope = core.ScopeDevice
	}
	return Op{Kind: OpFence, Block: block, Warp: warp, Scope: scope,
		FromBarrier: flags&fenceFromBarrier != 0, Cycle: cycle}, nil
}

func (r *Reader) decodeBarrier() (Op, error) {
	block, err := r.intField("barrier block")
	if err != nil {
		return Op{}, err
	}
	id, err := r.byte("barrier id")
	if err != nil {
		return Op{}, err
	}
	warps, err := r.intField("barrier warps")
	if err != nil {
		return Op{}, err
	}
	cycle, err := r.cycle()
	if err != nil {
		return Op{}, err
	}
	return Op{Kind: OpBarrier, Block: block, BarrierID: id, Warps: warps, Cycle: cycle}, nil
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
