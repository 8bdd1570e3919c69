package engine

import (
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() { got = append(got, 5) })
	e.At(1, func() { got = append(got, 1) })
	e.At(3, func() { got = append(got, 3) })
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %d, want 5", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	for e.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	e.At(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past event ran at %d, want clamp to 10", e.Now())
			}
		})
	})
	for e.Step() {
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			e.After(2, rec)
		}
	}
	e.After(0, rec)
	cycle, ok := e.RunUntilIdle(0)
	if !ok || depth != 100 {
		t.Fatalf("depth=%d ok=%v", depth, ok)
	}
	if cycle != 2*99 {
		t.Fatalf("final cycle %d, want %d", cycle, 2*99)
	}
}

func TestRunUntilIdleLimit(t *testing.T) {
	e := New()
	var rec func()
	rec = func() { e.After(10, rec) }
	e.After(0, rec)
	if _, ok := e.RunUntilIdle(500); ok {
		t.Fatal("limit not enforced on runaway schedule")
	}
}

// Regression: a zero-delay self-rescheduling event never advances the
// clock, so a cycle limit alone cannot stop it. The event-count backstop
// must terminate the drain and report failure.
func TestRunUntilIdleSameCycleRunaway(t *testing.T) {
	e := New()
	var rec func()
	rec = func() { e.After(0, rec) }
	e.After(0, rec)
	if _, ok := e.RunUntilIdle(500); ok {
		t.Fatal("same-cycle runaway drained to idle")
	}
}

// Regression: the limit is checked before dispatch, so an event scheduled
// past the limit must not execute before the failure is reported.
func TestRunUntilIdleLimitChecksBeforeDispatch(t *testing.T) {
	e := New()
	ran := false
	e.At(100, func() {})
	e.At(600, func() { ran = true })
	cycle, ok := e.RunUntilIdle(500)
	if ok {
		t.Fatal("limit not reported with an event still queued")
	}
	if ran {
		t.Fatal("event past the limit executed")
	}
	if cycle != 100 {
		t.Fatalf("clock at %d, want 100 (last in-limit event)", cycle)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the over-limit event still queued", e.Pending())
	}
}

// An event exactly at the limit is within budget.
func TestRunUntilIdleLimitInclusive(t *testing.T) {
	e := New()
	ran := false
	e.At(500, func() { ran = true })
	if cycle, ok := e.RunUntilIdle(500); !ok || !ran || cycle != 500 {
		t.Fatalf("event at the limit: cycle=%d ok=%v ran=%v", cycle, ok, ran)
	}
}

func TestRunBudgetMaxEvents(t *testing.T) {
	e := New()
	n := 0
	var rec func()
	rec = func() {
		n++
		e.After(1, rec)
	}
	e.After(0, rec)
	if _, ok := e.RunBudget(Budget{MaxEvents: 10}); ok {
		t.Fatal("event budget not enforced")
	}
	if n != 10 {
		t.Fatalf("dispatched %d events, want exactly 10", n)
	}
}

// A paused drain resumes with the same budget: the event limit counts
// every event dispatched since Begin, across pauses.
func TestDrainPauseKeepsBudget(t *testing.T) {
	e := New()
	n := 0
	var rec func()
	rec = func() {
		n++
		e.After(0, rec)
		e.Pause()
	}
	e.After(0, rec)
	e.Begin(Budget{MaxEvents: 10})
	pauses := 0
	stop := e.Drain()
	for stop == Paused {
		pauses++
		stop = e.Drain()
	}
	if stop != OverBudget || n != 10 || pauses != 10 {
		t.Fatalf("stop=%v after %d events and %d pauses, want OverBudget after 10 and 10", stop, n, pauses)
	}
}

// Property: the engine drains events in nondecreasing cycle order no
// matter the insertion order.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(cycles []uint16) bool {
		e := New()
		var runs []uint64
		for _, c := range cycles {
			c := uint64(c)
			e.At(c, func() { runs = append(runs, e.Now()) })
		}
		for e.Step() {
		}
		for i := 1; i < len(runs); i++ {
			if runs[i] < runs[i-1] {
				return false
			}
		}
		return len(runs) == len(cycles)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAtStepAllocFree: scheduling and dispatching an event with a prebuilt
// callback on a warmed queue allocates nothing.
func TestAtStepAllocFree(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(uint64(i), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.After(7, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At+Step allocates %.1f times per event, want 0", allocs)
	}
}

// BenchmarkEngineEvent reports the cost of one event: scheduling it at a
// mixed delay into a queue of a few hundred pending events, and
// dispatching the earliest.
func BenchmarkEngineEvent(b *testing.B) {
	delays := [...]uint64{0, 1, 4, 0, 25, 2, 300, 0, 10, 1, 80, 6}
	e := New()
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.After(delays[i%len(delays)]+uint64(i%7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(delays[i%len(delays)], fn)
		e.Step()
	}
}
