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

	"scord/internal/analysis/predict"
	"scord/internal/tracefile"
)

// ErrStoreFull reports that admitting the upload would exceed the store's
// byte budget.
var ErrStoreFull = errors.New("serve: trace store full")

// Trace is one validated, content-addressed upload. Raw is immutable
// after Put; replay jobs decode it concurrently without copying.
type Trace struct {
	// ID is the lowercase hex SHA-256 of the raw trace bytes — the
	// content address clients replay by, and the first half of every
	// result-cache key.
	ID     string
	Raw    []byte
	Header tracefile.Header

	// Ops, Accesses and Kernels summarize what upload validation decoded.
	Ops, Accesses, Kernels int
}

// Store holds uploaded traces in memory, keyed by content hash. Every
// upload is fully decoded before admission — block CRCs, varint shapes
// and the end-block counts all verified by tracefile.Reader — so a trace
// in the store is replayable by construction. Identical bytes dedupe to
// one entry.
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	used     int64
	traces   map[string]*Trace

	uploads  atomic.Int64 // validated non-duplicate admissions
	dups     atomic.Int64 // uploads deduped against an existing entry
	rejected atomic.Int64 // corrupt or over-budget uploads
}

// NewStore returns a store admitting up to maxBytes of raw trace data.
func NewStore(maxBytes int64) *Store {
	return &Store{maxBytes: maxBytes, traces: map[string]*Trace{}}
}

// maxBlocks bounds the block IDs an upload may use, far above the widest
// grid the suite records (RED, 32 blocks).
const maxBlocks = 1024

// Validate decodes an entire trace stream, returning its header and op
// counts, or the decoding error. It is the single admission gate for
// uploaded bytes: it also rejects a header whose configuration a device
// could not run with, or whose arena exceeds the 1 GB bound predict
// applies by default. Each metadata-backed model sizes its page directory
// by the arena, so a header claiming 1 TB would cost 4 GB per model on
// every replay. It also rejects any access, fence or barrier of a block
// at or beyond maxBlocks: every detector-backed model grows a 32-byte
// lock table per warp up to the largest block ID it sees, so one store
// at block 2^31 would ask each model for 4 TiB, an out-of-memory crash no
// recover contains.
func Validate(r io.Reader) (h tracefile.Header, ops, accesses, kernels int, err error) {
	tr, err := tracefile.NewReader(r)
	if err != nil {
		return tracefile.Header{}, 0, 0, 0, err
	}
	cfg := tr.Header().Config
	if err := cfg.Validate(); err != nil {
		return tracefile.Header{}, 0, 0, 0, err
	}
	if cfg.DeviceMemBytes > predict.DefaultMaxMemBytes {
		return tracefile.Header{}, 0, 0, 0, fmt.Errorf("serve: header declares a %d-byte device arena, limit %d",
			cfg.DeviceMemBytes, predict.DefaultMaxMemBytes)
	}
	for {
		op, err := tr.Next()
		if err == io.EOF {
			return tr.Header(), ops, accesses, kernels, nil
		}
		if err != nil {
			return tracefile.Header{}, 0, 0, 0, err
		}
		ops++
		block := 0
		switch op.Kind {
		case tracefile.OpAccess:
			accesses++
			block = op.Access.Block
		case tracefile.OpFence, tracefile.OpBarrier:
			block = op.Block
		case tracefile.OpKernel:
			kernels++
		}
		if block >= maxBlocks {
			return tracefile.Header{}, 0, 0, 0, fmt.Errorf("serve: op %d is on block %d, limit %d blocks", ops-1, block, maxBlocks)
		}
	}
}

// Put validates and admits raw as a trace. It returns the stored (or
// pre-existing identical) trace and whether this upload was a duplicate.
func (st *Store) Put(raw []byte) (tr *Trace, dup bool, err error) {
	h, ops, accesses, kernels, err := Validate(bytes.NewReader(raw))
	if err != nil {
		st.rejected.Add(1)
		return nil, false, err
	}
	sum := sha256.Sum256(raw)
	id := hex.EncodeToString(sum[:])

	st.mu.Lock()
	defer st.mu.Unlock()
	if existing, ok := st.traces[id]; ok {
		st.dups.Add(1)
		return existing, true, nil
	}
	if st.used+int64(len(raw)) > st.maxBytes {
		st.rejected.Add(1)
		return nil, false, fmt.Errorf("%w: %d bytes stored, %d-byte upload exceeds %d budget",
			ErrStoreFull, st.used, len(raw), st.maxBytes)
	}
	tr = &Trace{ID: id, Raw: raw, Header: h, Ops: ops, Accesses: accesses, Kernels: kernels}
	st.traces[id] = tr
	st.used += int64(len(raw))
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
	b = fmt.Appendf(b, "# HELP scord_serve_store_bytes raw trace bytes stored\n# TYPE scord_serve_store_bytes gauge\nscord_serve_store_bytes %d\n", used)
	b = fmt.Appendf(b, "# HELP scord_serve_store_uploads_total validated uploads admitted\n# TYPE scord_serve_store_uploads_total counter\nscord_serve_store_uploads_total %d\n", st.uploads.Load())
	b = fmt.Appendf(b, "# HELP scord_serve_store_dup_uploads_total uploads deduped by content hash\n# TYPE scord_serve_store_dup_uploads_total counter\nscord_serve_store_dup_uploads_total %d\n", st.dups.Load())
	b = fmt.Appendf(b, "# HELP scord_serve_store_rejected_total corrupt or over-budget uploads\n# TYPE scord_serve_store_rejected_total counter\nscord_serve_store_rejected_total %d\n", st.rejected.Load())
	_, err := w.Write(b)
	return err
}
