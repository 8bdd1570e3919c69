// Package tracing is the span layer under every scord observability
// surface: a tree of named, timestamped spans with attributes and point
// events, serializable to a self-contained JSON format and (via
// internal/obs) to Perfetto.
//
// Two clock domains share the one span model, and the distinction is
// load-bearing:
//
//   - ClockCycles: timestamps are simulated cycles. Cycle-domain spans
//     are part of a run's deterministic output — a pure function of
//     (config, seed, kernel) — so this package lives in the detlint
//     deterministic core: no wall clock, no global rand, no map-order
//     leaks. Span and trace IDs derive from content hashes and creation
//     order, never from entropy.
//
//   - ClockWall: timestamps are wall-clock readings supplied by an
//     injected Clock. The package itself never reads time (that would
//     break the determinism contract for the cycle domain sharing this
//     code); callers on the service path (internal/serve) inject
//     time.Now-based clocks and W3C traceparent identities.
//
// A Tracer owns one trace: spans open and close in any order, and the
// export order is deterministic — spans sort by (start, creation order),
// attributes keep insertion order.
package tracing

import (
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
)

// Clock supplies timestamps for a tracer. The unit is the tracer's clock
// domain: simulated cycles or wall-clock microseconds.
type Clock func() uint64

// Domain names a tracer's clock domain.
type Domain string

const (
	// ClockCycles marks deterministic simulated-cycle timestamps.
	ClockCycles Domain = "cycles"
	// ClockWall marks wall-clock timestamps (microseconds).
	ClockWall Domain = "wall_us"
)

// TraceID is a 16-byte W3C-compatible trace identifier.
type TraceID [16]byte

// SpanID is an 8-byte W3C-compatible span identifier.
type SpanID [8]byte

func (t TraceID) String() string { return fmt.Sprintf("%032x", t[:]) }
func (s SpanID) String() string  { return fmt.Sprintf("%016x", s[:]) }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

// DeriveTraceID builds a deterministic trace ID by hashing the given
// parts — the cycle domain derives identity from content (benchmark
// name, config hash, seed), never from entropy, so identical runs carry
// identical trace IDs.
func DeriveTraceID(parts ...string) TraceID {
	h := fnv.New128a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	var id TraceID
	h.Sum(id[:0])
	if id.IsZero() {
		id[15] = 1 // the all-zero ID is invalid per W3C; nudge it
	}
	return id
}

// deriveSpanID folds a trace ID and a creation ordinal into a span ID:
// deterministic, unique within the trace, stable across runs.
func deriveSpanID(trace TraceID, ordinal uint64) SpanID {
	h := fnv.New64a()
	h.Write(trace[:])
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(ordinal >> (8 * i))
	}
	h.Write(buf[:])
	var id SpanID
	h.Sum(id[:0])
	if id.IsZero() {
		id[7] = 1
	}
	return id
}

// Attr is one key/value annotation. Values are strings: every consumer
// (JSON, Perfetto args, logs) renders strings, and forcing the
// conversion at the producer keeps serialization trivially deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is a point-in-time annotation on a span (e.g. a race verdict
// with its evidence attached).
type Event struct {
	Name  string `json:"name"`
	Time  uint64 `json:"ts"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Span is one node of the trace tree.
type Span struct {
	id     SpanID
	parent SpanID
	name   string
	start  uint64
	end    uint64
	open   bool
	seq    int // creation order, the deterministic tiebreak
	attrs  []Attr
	events []Event
	tr     *Tracer
}

// ID returns the span's identifier.
func (s *Span) ID() SpanID { return s.id }

// Parent returns the parent span's identifier (zero for a root).
func (s *Span) Parent() SpanID { return s.parent }

// Name returns the span's name.
func (s *Span) Name() string { return s.name }

// Start returns the span's start timestamp.
func (s *Span) Start() uint64 { return s.start }

// EndTime returns the span's end timestamp (meaningful once finished).
func (s *Span) EndTime() uint64 { return s.end }

// Open reports whether the span has not been finished yet.
func (s *Span) Open() bool { return s.open }

// Attrs returns the span's attributes in insertion order.
func (s *Span) Attrs() []Attr { return s.attrs }

// Events returns the span's point events in insertion order.
func (s *Span) Events() []Event { return s.events }

// SetAttr appends one attribute. Insertion order is preserved on export.
func (s *Span) SetAttr(key, value string) *Span {
	s.attrs = append(s.attrs, Attr{key, value})
	return s
}

// AddEvent attaches a point event at time ts.
func (s *Span) AddEvent(name string, ts uint64, attrs ...Attr) {
	s.events = append(s.events, Event{Name: name, Time: ts, Attrs: attrs})
}

// StartChild opens a child span at the tracer's current clock.
func (s *Span) StartChild(name string) *Span {
	return s.tr.startSpan(name, s.id, s.tr.now())
}

// StartChildAt opens a child span at an explicit timestamp (the cycle
// domain always passes timestamps explicitly).
func (s *Span) StartChildAt(name string, start uint64) *Span {
	return s.tr.startSpan(name, s.id, start)
}

// Finish closes the span at the tracer's current clock.
func (s *Span) Finish() { s.FinishAt(s.tr.now()) }

// FinishAt closes the span at an explicit timestamp. Finishing twice is
// a no-op; a span never finishes before it started.
func (s *Span) FinishAt(end uint64) {
	if !s.open {
		return
	}
	if end < s.start {
		end = s.start
	}
	s.end = end
	s.open = false
}

// Tracer owns one trace: an identity, a clock domain, and the spans
// created under it. It is not safe for concurrent use; the simulation is
// single-threaded and the serve path guards each request's tracer.
type Tracer struct {
	domain  Domain
	traceID TraceID
	clock   Clock
	spans   []*Span
	dropped int
	cap     int
}

// DefaultSpanCap bounds a tracer's retained spans; past it new spans are
// counted as dropped but not stored, so a pathological workload cannot
// exhaust host memory. The cap is deterministic: the same run drops the
// same spans.
const DefaultSpanCap = 1 << 16

// New builds a tracer for one trace in the given clock domain. A nil
// clock is valid for purely explicit-timestamp use (the cycle domain);
// reading it then yields 0.
func New(domain Domain, traceID TraceID, clock Clock) *Tracer {
	return &Tracer{domain: domain, traceID: traceID, clock: clock, cap: DefaultSpanCap}
}

// SetSpanCap overrides the retained-span bound (minimum 1).
func (t *Tracer) SetSpanCap(n int) {
	if n < 1 {
		n = 1
	}
	t.cap = n
}

// Domain returns the tracer's clock domain.
func (t *Tracer) Domain() Domain { return t.domain }

// TraceID returns the trace identity.
func (t *Tracer) TraceID() TraceID { return t.traceID }

// Dropped reports spans discarded past the cap.
func (t *Tracer) Dropped() int { return t.dropped }

// Len reports retained spans.
func (t *Tracer) Len() int { return len(t.spans) }

// LogValue reports the trace's identity and size for structured logs,
// including any spans dropped past the cap, which an export lacks.
func (t *Tracer) LogValue() slog.Value {
	attrs := []slog.Attr{slog.String("id", t.traceID.String()), slog.Int("spans", len(t.spans))}
	if t.dropped > 0 {
		attrs = append(attrs, slog.Int("dropped_spans", t.dropped))
	}
	return slog.GroupValue(attrs...)
}

func (t *Tracer) now() uint64 {
	if t.clock == nil {
		return 0
	}
	return t.clock()
}

// StartRoot opens a root span (no parent) at the current clock.
func (t *Tracer) StartRoot(name string) *Span {
	return t.startSpan(name, SpanID{}, t.now())
}

// StartRootAt opens a root span at an explicit timestamp.
func (t *Tracer) StartRootAt(name string, start uint64) *Span {
	return t.startSpan(name, SpanID{}, start)
}

// StartRootUnder opens a root-level span whose parent is a remote span
// (a W3C traceparent's parent-id): the span tree continues a trace begun
// elsewhere.
func (t *Tracer) StartRootUnder(parent SpanID, name string) *Span {
	return t.startSpan(name, parent, t.now())
}

// discard is the sink for spans past the cap: callers keep a working
// *Span (attrs and children still behave), it just never exports.
func (t *Tracer) startSpan(name string, parent SpanID, start uint64) *Span {
	s := &Span{
		name:   name,
		parent: parent,
		start:  start,
		end:    start,
		open:   true,
		tr:     t,
	}
	if len(t.spans) >= t.cap {
		t.dropped++
		s.id = deriveSpanID(t.traceID, uint64(t.cap)+uint64(t.dropped))
		return s
	}
	s.seq = len(t.spans)
	s.id = deriveSpanID(t.traceID, uint64(len(t.spans)))
	t.spans = append(t.spans, s)
	return s
}

// Spans returns the retained spans sorted by (start, creation order) —
// the canonical deterministic export order. Open spans are closed at the
// maximum observed timestamp first, so an export mid-flight is
// well-formed.
func (t *Tracer) Spans() []*Span {
	var last uint64
	for _, s := range t.spans {
		if s.end > last {
			last = s.end
		}
		if s.start > last {
			last = s.start
		}
		for _, e := range s.events {
			if e.Time > last {
				last = e.Time
			}
		}
	}
	for _, s := range t.spans {
		if s.open {
			s.FinishAt(last)
		}
	}
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].seq < out[j].seq
	})
	return out
}
