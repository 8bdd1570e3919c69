// Package engine provides the deterministic discrete-event core that drives
// every timed component of the GPU simulator. Events are ordered by
// (cycle, insertion sequence), so identical inputs always replay the exact
// same schedule.
package engine

// Event is a callback scheduled to run at a particular cycle.
type Event func()

type item struct {
	cycle uint64
	seq   uint64
	fn    Event
}

func (a *item) before(b *item) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	return a.seq < b.seq
}

// Engine is a deterministic event queue. It is not safe for concurrent
// use: one goroutine at a time may call it. The gpu package calls it from
// whichever of its goroutines holds the launch's baton, and a channel
// hand-off orders each holder after the last.
type Engine struct {
	now    uint64
	seq    uint64
	events []item // binary min-heap on (cycle, seq)

	// The drain in progress (Begin, Drain, Pause).
	budget     Budget
	dispatched uint64
	paused     bool
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	return &Engine{}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// At schedules fn to run at the given absolute cycle. Scheduling in the
// past runs at the current cycle instead (never before: the engine only
// moves forward).
func (e *Engine) At(cycle uint64, fn Event) {
	if cycle < e.now {
		cycle = e.now
	}
	it := item{cycle: cycle, seq: e.seq, fn: fn}
	e.seq++
	h := append(e.events, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !it.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.events = h
}

// After schedules fn delay cycles from now.
func (e *Engine) After(delay uint64, fn Event) {
	e.At(e.now+delay, fn)
}

// Step runs the next pending event, advancing the clock to its cycle.
// It reports false when no events remain.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.cycle
	it.fn()
	return true
}

// pop removes and returns the earliest event.
func (e *Engine) pop() item {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = item{} // drop the queue's reference to the callback
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(&h[c]) {
				c = r
			}
			if !h[c].before(&last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	e.events = h
	return top
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Budget bounds one drain of the event queue. The zero value means
// "unbounded" for both dimensions.
type Budget struct {
	// MaxCycle is the last cycle an event may execute at; an event
	// scheduled later stays queued and the drain stops. 0 disables the
	// bound.
	MaxCycle uint64
	// MaxEvents caps the number of dispatched events. A runaway
	// simulation that self-reschedules at the *same* cycle never crosses
	// any cycle bound, so a cycle limit alone cannot stop it; the event
	// backstop does. 0 disables the bound.
	MaxEvents uint64
}

// Stop says why Drain returned.
type Stop uint8

const (
	// Idle: the queue is empty.
	Idle Stop = iota
	// Paused: an event handler called Pause. The drain is not over.
	Paused
	// OverBudget: a bound was hit with events still queued.
	OverBudget
)

// Begin starts a drain of the queue within b; Drain runs it. The drain's
// event count starts at zero and spans every Drain call until the next
// Begin.
func (e *Engine) Begin(b Budget) {
	e.budget, e.dispatched, e.paused = b, 0, false
}

// Pause makes Drain return Paused once the running event handler returns.
// A later Drain, from any goroutine, continues with the same budget and
// event count.
func (e *Engine) Pause() { e.paused = true }

// Drain runs the drain begun by Begin until the queue empties, a bound is
// hit or a handler pauses it. Both bounds are checked *before* dispatching:
// an event past MaxCycle never executes.
func (e *Engine) Drain() Stop {
	for len(e.events) > 0 {
		if e.budget.MaxCycle != 0 && e.events[0].cycle > e.budget.MaxCycle {
			return OverBudget
		}
		if e.budget.MaxEvents != 0 && e.dispatched >= e.budget.MaxEvents {
			return OverBudget
		}
		e.dispatched++
		e.Step()
		if e.paused {
			e.paused = false
			return Paused
		}
	}
	return Idle
}

// defaultEventsPerCycle sizes RunUntilIdle's event backstop relative to
// its cycle limit. No component of the simulated GPU schedules anywhere
// near this many events per cycle, so the backstop only ever fires on
// genuine livelock.
const defaultEventsPerCycle = 4096

// RunBudget drains the event queue within the given budget, returning the
// final cycle; pauses are ignored. ok=false reports that a bound was hit
// and events remain queued.
func (e *Engine) RunBudget(b Budget) (cycle uint64, ok bool) {
	e.Begin(b)
	stop := e.Drain()
	for stop == Paused {
		stop = e.Drain()
	}
	return e.now, stop == Idle
}

// RunUntilIdle drains the event queue, returning the final cycle. The
// limit guards against runaway simulations (0 means no limit); it returns
// ok=false if the limit was hit with events still pending. A non-zero
// limit also implies an event-count backstop so a simulation that keeps
// rescheduling at the current cycle — and therefore never advances past
// the limit — still terminates.
func (e *Engine) RunUntilIdle(limit uint64) (cycle uint64, ok bool) {
	b := Budget{MaxCycle: limit}
	if limit != 0 {
		b.MaxEvents = limit * defaultEventsPerCycle
		if b.MaxEvents/defaultEventsPerCycle != limit { // overflow: saturate
			b.MaxEvents = ^uint64(0)
		}
	}
	return e.RunBudget(b)
}
