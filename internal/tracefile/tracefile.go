// Package tracefile defines a versioned, streaming binary format for the
// scoped memory-op stream that ScoRD's detection logic consumes. The
// detector is a pure function of this stream — warp and block identity,
// address, access kind, scope, atomicity, fences and barriers — while the
// timing simulator only decides *which* stream is observed. Recording the
// stream once therefore decouples detector experiments from cycle-level
// simulation: internal/replay feeds a recorded trace through any detector
// model orders of magnitude faster than re-simulating SMs, NOC and DRAM.
//
// File layout (version 1):
//
//	file   := magic version block*
//	magic  := "SCTR" (4 bytes)
//	version:= 0x01
//	block  := kind(1 byte) uvarint(len) payload crc32c(kind||payload, 4 bytes LE)
//
// Block kinds: 'H' (header, exactly one, first), 'O' (ops), 'E' (end,
// exactly one, last; its payload carries total op and kernel counts so a
// silently truncated file is distinguishable from a complete one).
//
// The header payload is the JSON encoding of Header: the format is
// self-describing, carrying the full device configuration, its hash, the
// seed, and the benchmark identity, so a trace can be replayed (or
// rejected) without out-of-band context.
//
// An ops payload is a sequence of op records. Integers are unsigned
// varints; cycles and addresses are delta-encoded against the previous
// record (zigzag-signed, since issue cycles are not globally monotone
// across warps) and site/name strings are interned into a table on first
// use. Every multi-byte structure is length-prefixed and CRC-checked;
// the Reader validates all of it and returns errors — never panics — on
// truncated blocks, corrupt checksums or bogus varints.
package tracefile

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"scord/internal/config"
	"scord/internal/core"
)

// Format constants.
const (
	// Version is the current format version.
	Version = 1

	magic = "SCTR"

	blockHeader = 'H'
	blockOps    = 'O'
	blockEnd    = 'E'

	// maxBlockLen bounds a block payload so a corrupt length field cannot
	// drive a huge allocation.
	maxBlockLen = 1 << 24
	// maxStringLen bounds one interned string.
	maxStringLen = 1 << 12
	// flushLen is the ops-block payload size the Writer flushes at.
	flushLen = 1 << 15
	// minRecordLen is the shortest op record: a kernel end with an empty
	// name and a one-byte cycle delta.
	minRecordLen = 3
)

// Op record kinds, as stored in the stream.
const (
	opAccess byte = iota + 1
	opFence
	opBarrier
	opKernel
	opKernelEnd
	opAlloc
)

// Header is the self-describing trace preamble.
type Header struct {
	// Version is the format version the trace was written with.
	Version int `json:"version"`
	// Benchmark and Injections identify the recorded workload.
	Benchmark  string   `json:"benchmark,omitempty"`
	Injections []string `json:"injections,omitempty"`
	// Seed is the simulation seed (duplicated from Config for quick
	// inspection).
	Seed int64 `json:"seed"`
	// ConfigHash is HashConfig(Config), letting a consumer detect a
	// mismatched or hand-edited configuration cheaply.
	ConfigHash uint64 `json:"configHash"`
	// Config is the full device configuration the trace was recorded
	// under, sufficient to rebuild an identically-shaped detector.
	Config config.Config `json:"config"`
}

// NewHeader builds a version-stamped header for the given workload and
// configuration, computing the config hash.
func NewHeader(benchmark string, injections []string, cfg config.Config) Header {
	return Header{
		Version:    Version,
		Benchmark:  benchmark,
		Injections: injections,
		Seed:       cfg.Seed,
		ConfigHash: HashConfig(cfg),
		Config:     cfg,
	}
}

// HashConfig returns the FNV-1a hash of the configuration's canonical JSON
// encoding. JSON field order follows the struct definition, so the hash is
// deterministic for a given config value.
func HashConfig(cfg config.Config) uint64 {
	b, err := json.Marshal(cfg)
	if err != nil {
		// config.Config is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("tracefile: marshaling config: %v", err))
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// OpKind identifies a decoded trace record.
type OpKind uint8

const (
	// OpAccess is one lane-level global-memory access in detector
	// presentation order.
	OpAccess OpKind = iota
	// OpFence is a scoped fence by one warp (FromBarrier marks the
	// implicit block-scope fence a barrier release performs).
	OpFence
	// OpBarrier is a barrier-release marker: the block's barrier ID
	// advanced and Warps warps resumed.
	OpBarrier
	// OpKernel is a kernel-launch marker (device-wide sync point).
	OpKernel
	// OpKernelEnd marks a kernel's completion.
	OpKernelEnd
	// OpAlloc records one named device-memory allocation.
	OpAlloc
)

func (k OpKind) String() string {
	switch k {
	case OpAccess:
		return "access"
	case OpFence:
		return "fence"
	case OpBarrier:
		return "barrier"
	case OpKernel:
		return "kernel"
	case OpKernelEnd:
		return "kernel-end"
	case OpAlloc:
		return "alloc"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one decoded trace record. Which fields are meaningful depends on
// Kind; the rest are zero.
//
// The narrow fields of every group sit together at the end, so an Op
// packs into 160 bytes, the unit of every whole-trace slice; a field
// added among them re-pads it (TestOpSize).
type Op struct {
	Kind OpKind

	// OpAccess: the access exactly as presented to the detector.
	Access core.Access

	// OpFence, OpBarrier: issuer identity and cycle; Warps applies to
	// barriers.
	Block, Warp int
	Warps       int
	Cycle       uint64

	// OpKernel, OpKernelEnd, OpAlloc: names and geometry.
	Name            string
	Blocks, Threads int
	Base, Bytes     uint64

	// OpAccess: the atomic flavour (lock-inference relevant). OpFence:
	// Scope and FromBarrier. OpBarrier: BarrierID. OpAccess: the access
	// width in bytes.
	AtomicOp    core.AtomicOp
	Scope       core.Scope
	FromBarrier bool
	BarrierID   uint8
	Size        uint32
}

// String renders a compact single-line description (scord-replay dump).
func (o Op) String() string {
	switch o.Kind {
	case OpAccess:
		a := o.Access
		s := fmt.Sprintf("access %s %s addr=%#x size=%d b%d w%d bar=%d cycle=%d",
			a.Kind, a.Scope, a.Addr, o.Size, a.Block, a.Warp, a.Barrier, a.Cycle)
		if a.Strong {
			s += " strong"
		}
		if o.AtomicOp != core.AtomicOther {
			s += fmt.Sprintf(" aop=%d", int(o.AtomicOp))
		}
		if a.Diverged {
			s += fmt.Sprintf(" lane=%d", a.Lane)
		}
		if a.Site != "" {
			s += fmt.Sprintf(" site=%q", a.Site)
		}
		return s
	case OpFence:
		s := fmt.Sprintf("fence %s b%d w%d cycle=%d", o.Scope, o.Block, o.Warp, o.Cycle)
		if o.FromBarrier {
			s += " (barrier)"
		}
		return s
	case OpBarrier:
		return fmt.Sprintf("barrier b%d id=%d warps=%d cycle=%d", o.Block, o.BarrierID, o.Warps, o.Cycle)
	case OpKernel:
		return fmt.Sprintf("kernel %q blocks=%d threads=%d cycle=%d", o.Name, o.Blocks, o.Threads, o.Cycle)
	case OpKernelEnd:
		return fmt.Sprintf("kernel-end %q cycle=%d", o.Name, o.Cycle)
	case OpAlloc:
		return fmt.Sprintf("alloc %q base=%#x bytes=%d", o.Name, o.Base, o.Bytes)
	default:
		return o.Kind.String()
	}
}

// marshalHeader encodes the header block payload.
func marshalHeader(h Header) ([]byte, error) {
	b, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("tracefile: marshaling header: %w", err)
	}
	return b, nil
}

// zigzag maps a signed delta onto an unsigned varint-friendly value.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
