package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"scord/internal/analysis/predict"
	"scord/internal/tracefile"
)

// ErrStoreFull reports that admitting the upload would exceed the store's
// byte budget.
var ErrStoreFull = errors.New("serve: trace store full")

// TooLargeError reports an upload whose reservation alone exceeds the
// store's whole byte budget: no store of that budget could admit it, so,
// unlike a full store, waiting for room cannot help. It wraps
// ErrStoreFull.
type TooLargeError struct {
	Reserve  int64 // bytes the upload reserves before decoding
	MaxBytes int64 // the store's whole budget
}

func (e *TooLargeError) Error() string {
	return fmt.Sprintf("%v: upload costs %d bytes, more than the whole %d-byte budget", ErrStoreFull, e.Reserve, e.MaxBytes)
}

func (e *TooLargeError) Unwrap() error { return ErrStoreFull }

// opBytes and controlBytes are what one decoded op and one Control cost
// the store's byte budget.
const (
	opBytes      = int64(unsafe.Sizeof(tracefile.Op{}))
	controlBytes = int64(unsafe.Sizeof(tracefile.Control{}))
)

// traceCost is what a trace encoded in raw costs the store's byte budget
// once decoded into ops ops and controls Controls (tracefile.Reader's
// Controls, chunk capacity included), plus its raw length, which bounds
// the strings they point at. The reader copies each interned string out
// of the raw bytes once, so sites and names cannot hold more than raw did.
func traceCost(ops, controls int, raw []byte) int64 {
	return int64(ops)*opBytes + int64(controls)*controlBytes + int64(len(raw))
}

// Trace is one validated, content-addressed upload, decoded once at
// admission. ops is immutable after Put: replay jobs only read it, so
// any number of them share the one copy.
type Trace struct {
	// ID is the lowercase hex SHA-256 of the raw trace bytes — the
	// content address clients replay by, and the first half of every
	// result-cache key.
	ID     string
	Header tracefile.Header
	ops    []tracefile.Op

	// RawBytes is the upload's encoded length. Ops, Accesses and Kernels
	// summarize what upload validation decoded.
	RawBytes               int
	Ops, Accesses, Kernels int
}

// Store holds uploaded traces in memory, decoded, keyed by content hash.
// Every upload is fully validated before admission — block CRCs, varint
// shapes and the end-block counts all verified by tracefile.Reader — so
// a trace in the store is replayable by construction. Identical bytes
// dedupe to one entry. The byte budget bounds what the store holds: the
// decoded ops, their Controls and the strings they point at (traceCost).
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64 // cost of the traces held, plus that of uploads being decoded
	traces   map[string]*Trace
	pending  map[string]chan struct{} // uploads being decoded; closed when done

	uploads  atomic.Int64 // validated non-duplicate admissions
	dups     atomic.Int64 // uploads deduped against an existing entry
	rejected atomic.Int64 // corrupt or over-budget uploads
}

// NewStore returns a store admitting traces up to a total traceCost of
// maxBytes.
func NewStore(maxBytes int64) *Store {
	return &Store{maxBytes: maxBytes, traces: map[string]*Trace{}, pending: map[string]chan struct{}{}}
}

// maxBlocks bounds the block IDs an upload may use, far above the widest
// grid the suite records (RED, 32 blocks).
const maxBlocks = 1024

// openTrace opens an upload for decoding, through the header half of the
// admission gate: tracefile.NewReader's preamble and config-hash checks,
// and a refusal of any configuration a device could not run with, or whose
// arena exceeds the 1 GB bound predict applies by default. Each
// metadata-backed model sizes its page directory by the arena, so a header
// claiming 1 TB would cost 4 GB per model on every replay.
func openTrace(raw []byte) (*tracefile.Reader, error) {
	rd, err := tracefile.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	cfg := rd.Header().Config
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.DeviceMemBytes > predict.DefaultMaxMemBytes {
		return nil, fmt.Errorf("serve: header declares a %d-byte device arena, limit %d",
			cfg.DeviceMemBytes, predict.DefaultMaxMemBytes)
	}
	return rd, nil
}

// readOps is the op half of the admission gate. It decodes the rest of
// the trace, through every check tracefile.Reader makes (block CRCs,
// varint shapes, arena bounds, the end block's counts), and refuses any
// access, fence or barrier of a block at or beyond maxBlocks: every
// detector-backed model grows an 8-byte lock-directory slot per block
// up to the largest block that issues a CAS, so one CAS at block 2^31
// would ask each model for 16 GiB, an out-of-memory crash no recover
// contains.
func readOps(rd *tracefile.Reader) (ops []tracefile.Op, accesses, kernels int, err error) {
	ops, err = rd.ReadAll()
	if err != nil {
		return nil, 0, 0, err
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case tracefile.OpAccess:
			accesses++
		case tracefile.OpKernel:
			kernels++
		}
		// Kernel, kernel-end and alloc ops carry block 0.
		if op.Block >= maxBlocks {
			return nil, 0, 0, fmt.Errorf("serve: op %d is on block %d, limit %d blocks", i, op.Block, maxBlocks)
		}
	}
	return ops, accesses, kernels, nil
}

// Put validates and admits raw as a trace. It returns the stored (or
// pre-existing identical) trace and whether this upload was a duplicate.
// A duplicate costs nothing, also while its twin is still being decoded:
// it waits for the twin instead of being charged a second time. An upload
// is decoded once, after the budget has reserved the most that can cost:
// an op and a Control for each op its end block declares, since ReadAll
// allocates no more of either. So an upload whose decoded ops could not
// fit is refused before they are allocated. Decoding settles the charge
// to the ops and Control chunks it did allocate. An upload that could not
// fit even an empty store gets a *TooLargeError, one that does not fit
// beside the traces held ErrStoreFull.
func (st *Store) Put(raw []byte) (tr *Trace, dup bool, err error) {
	rd, err := openTrace(raw)
	if err != nil {
		st.rejected.Add(1)
		return nil, false, err
	}
	n := tracefile.DeclaredOps(raw)
	reserve := traceCost(n, n, raw)
	if reserve > st.maxBytes {
		st.rejected.Add(1)
		return nil, false, &TooLargeError{Reserve: reserve, MaxBytes: st.maxBytes}
	}
	sum := sha256.Sum256(raw)
	id := hex.EncodeToString(sum[:])

	st.mu.Lock()
	for {
		if existing, ok := st.traces[id]; ok {
			st.mu.Unlock()
			st.dups.Add(1)
			return existing, true, nil
		}
		twin, ok := st.pending[id]
		if !ok {
			break
		}
		st.mu.Unlock()
		<-twin
		st.mu.Lock()
	}
	if st.used+reserve > st.maxBytes {
		used := st.used
		st.mu.Unlock()
		st.rejected.Add(1)
		return nil, false, fmt.Errorf("%w: %d bytes stored, upload costs %d bytes, budget %d",
			ErrStoreFull, used, reserve, st.maxBytes)
	}
	// Reserve the budget and mark the upload pending, then decode outside
	// the lock: replays look traces up under it.
	st.used += reserve
	done := make(chan struct{})
	st.pending[id] = done
	st.mu.Unlock()

	ops, accesses, kernels, err := readOps(rd)

	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.pending, id)
	close(done)
	if err != nil {
		st.used -= reserve
		st.rejected.Add(1)
		return nil, false, err
	}
	// Settle the reservation to what the decoded trace holds.
	cost := traceCost(len(ops), rd.Controls(), raw)
	st.used -= reserve - cost
	tr = &Trace{ID: id, Header: rd.Header(), ops: ops, RawBytes: len(raw), Ops: len(ops), Accesses: accesses, Kernels: kernels}
	st.traces[id] = tr
	st.uploads.Add(1)
	return tr, false, nil
}

// Get returns the trace stored under id.
func (st *Store) Get(id string) (*Trace, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	tr, ok := st.traces[id]
	return tr, ok
}

// IDs returns the stored content hashes, sorted.
func (st *Store) IDs() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	ids := make([]string, 0, len(st.traces))
	for id := range st.traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Name implements Component.
func (st *Store) Name() string { return "store" }

// Healthy implements Component: degraded (but serving) once the byte
// budget is exhausted — stored traces stay replayable.
func (st *Store) Healthy() (bool, string) {
	st.mu.Lock()
	used := st.used
	st.mu.Unlock()
	if used >= st.maxBytes {
		return false, "byte budget exhausted"
	}
	return true, "ok"
}

// Status implements Component.
func (st *Store) Status() any {
	st.mu.Lock()
	count, used := len(st.traces), st.used
	st.mu.Unlock()
	return map[string]any{
		"traces":    count,
		"bytes":     used,
		"max_bytes": st.maxBytes,
		"uploads":   st.uploads.Load(),
		"dups":      st.dups.Load(),
		"rejected":  st.rejected.Load(),
	}
}

// WritePrometheus implements obs.MetricsWriter.
func (st *Store) WritePrometheus(w io.Writer) error {
	st.mu.Lock()
	count, used := len(st.traces), st.used
	st.mu.Unlock()
	var b []byte
	b = fmt.Appendf(b, "# HELP scord_serve_store_traces stored traces\n# TYPE scord_serve_store_traces gauge\nscord_serve_store_traces %d\n", count)
	b = fmt.Appendf(b, "# HELP scord_serve_store_bytes bytes held against the store budget: 80 per decoded op, 56 per kernel, alloc or barrier payload, plus each trace's raw length\n# TYPE scord_serve_store_bytes gauge\nscord_serve_store_bytes %d\n", used)
	b = fmt.Appendf(b, "# HELP scord_serve_store_uploads_total validated uploads admitted\n# TYPE scord_serve_store_uploads_total counter\nscord_serve_store_uploads_total %d\n", st.uploads.Load())
	b = fmt.Appendf(b, "# HELP scord_serve_store_dup_uploads_total uploads deduped by content hash\n# TYPE scord_serve_store_dup_uploads_total counter\nscord_serve_store_dup_uploads_total %d\n", st.dups.Load())
	b = fmt.Appendf(b, "# HELP scord_serve_store_rejected_total corrupt or over-budget uploads\n# TYPE scord_serve_store_rejected_total counter\nscord_serve_store_rejected_total %d\n", st.rejected.Load())
	_, err := w.Write(b)
	return err
}
