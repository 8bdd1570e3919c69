package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"scord/internal/obs"
	"scord/internal/obs/tracing"
)

// spanLog owns the wall-clock tracers of one traced run. A
// tracing.Tracer is not safe for concurrent use, so every goroutine that
// records spans gets its own. Spans stay in memory until write.
type spanLog struct {
	epoch time.Time
	run   string

	mu      sync.Mutex
	tracers []*tracing.Tracer
	names   []string
	// extra holds span trees recorded elsewhere (the server's request
	// spans) to merge into the export of the tracer sharing their trace
	// ID.
	extra map[tracing.TraceID][]tracing.ExportSpan
}

// newSpanLog returns nil when tracing is off; every helper below
// accepts the nil log and records nothing.
func newSpanLog(p params) *spanLog {
	if !p.trace {
		return nil
	}
	return &spanLog{
		epoch: time.Now(),
		run:   fmt.Sprintf("%s-seed%d", p.workload, p.seed),
		extra: map[tracing.TraceID][]tracing.ExportSpan{},
	}
}

// now is the tracers' clock: microseconds since the log was made.
func (l *spanLog) now() uint64 { return uint64(time.Since(l.epoch) / time.Microsecond) }

// tracer registers a tracer for one goroutine.
func (l *spanLog) tracer(name string) *tracing.Tracer {
	if l == nil {
		return nil
	}
	tr := tracing.New(tracing.ClockWall, tracing.DeriveTraceID("perfbench", l.run, name), l.now)
	tr.SetSpanCap(1 << 20)
	l.mu.Lock()
	l.tracers = append(l.tracers, tr)
	l.names = append(l.names, name)
	l.mu.Unlock()
	return tr
}

// join attaches span trees recorded by another process clock to the
// tracer with the same trace ID; shift converts their timestamps to
// this log's clock.
func (l *spanLog) join(id tracing.TraceID, spans []tracing.ExportSpan, shift int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range spans {
		s.Start = uint64(int64(s.Start) + shift)
		s.End = uint64(int64(s.End) + shift)
		l.extra[id] = append(l.extra[id], s)
	}
}

// span opens a span on tr under parent, or a root span when parent is
// nil. With tracing off (nil tr) it returns nil, and finish ignores it.
func span(tr *tracing.Tracer, parent *tracing.Span, name string) *tracing.Span {
	switch {
	case tr == nil:
		return nil
	case parent == nil:
		return tr.StartRoot(name)
	default:
		return parent.StartChild(name)
	}
}

// finish closes a span opened by span.
func finish(s *tracing.Span) {
	if s != nil {
		s.Finish()
	}
}

// exports returns the span trees of the tracers whose name starts with
// prefix, with the joined spans merged in, in registration order.
func (l *spanLog) exports(prefix string) []tracing.Export {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []tracing.Export
	for i, tr := range l.tracers {
		if !strings.HasPrefix(l.names[i], prefix) {
			continue
		}
		ex := tr.Snapshot()
		if extra := l.extra[tr.TraceID()]; len(extra) > 0 {
			ex.Spans = append(ex.Spans, extra...)
			sort.SliceStable(ex.Spans, func(i, j int) bool { return ex.Spans[i].Start < ex.Spans[j].Start })
		}
		out = append(out, ex)
	}
	return out
}

// write stores each tracer's spans as scord-spans/1 JSON and as a
// Perfetto trace under dir/<run>/.
func (l *spanLog) write(dir string) error {
	exs := l.exports("")
	out := dir + "/" + l.run
	for i, ex := range exs {
		name := strings.ReplaceAll(l.names[i], "/", "_")
		ex := ex
		if err := writeFile(out, name+".spans.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			return enc.Encode(ex)
		}); err != nil {
			return err
		}
		if err := writeFile(out, name+".perfetto.json", func(w io.Writer) error {
			return obs.WritePerfettoSpans(w, ex)
		}); err != nil {
			return err
		}
	}
	return nil
}

// spanTotals aggregates the spans of one name.
type spanTotals struct {
	n          int
	durUS      uint64
	selfUS     uint64
	durSamples []float64 // per-span duration in ms
}

// meanMS returns the mean span duration in milliseconds, 0 for no spans.
func (t spanTotals) meanMS() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.durUS) / 1e3 / float64(t.n)
}

// totals aggregates every span by name; a name without spans reads as
// the zero spanTotals. A span's self time is its duration minus the
// union of its children's intervals within it.
func totals(exs []tracing.Export) map[string]spanTotals {
	out := map[string]spanTotals{}
	for _, ex := range exs {
		children := map[string][]tracing.ExportSpan{}
		for _, s := range ex.Spans {
			if s.ParentID != "" {
				children[s.ParentID] = append(children[s.ParentID], s)
			}
		}
		for _, s := range ex.Spans {
			t := out[s.Name]
			dur := s.End - s.Start
			t.n++
			t.durUS += dur
			t.selfUS += dur - covered(s, children[s.SpanID])
			t.durSamples = append(t.durSamples, float64(dur)/1e3)
			out[s.Name] = t
		}
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent tracing.ExportSpan, kids []tracing.ExportSpan) uint64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum, end uint64
	end = parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, end), min(k.End, parent.End)
		if hi > lo {
			sum += hi - lo
			end = hi
		}
	}
	return sum
}
