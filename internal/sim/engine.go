// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine replaces the PeerSim simulator used in the CloudFog paper: it
// maintains a virtual clock and a priority queue of timestamped events, and
// executes events in time order. Ties are broken by scheduling order, so a
// run with a fixed seed is fully reproducible.
//
// The event queue is a binary min-heap of callback values ordered by
// (time, sequence) — no per-event heap allocation and no interface boxing,
// so steady-state Schedule+Step is allocation-free (see
// TestScheduleStepZeroAllocs). It is sized to its traffic (DESIGN.md §8):
// the heaviest run in the repo spends under 1 % of its time here, and nothing
// the product runs cancels an event, so the queue keeps no index for Cancel.
package sim

import (
	"fmt"
	"time"
)

// Event is a handle to a scheduled callback, returned by the scheduling
// methods so callers can cancel the event before it fires. The zero value
// is an inert handle: Cancel and Canceled work but refer to no event.
type Event struct {
	e        *Engine
	seq      uint64
	at       time.Duration
	canceled bool
}

// At returns the virtual time the event is scheduled to fire.
func (ev *Event) At() time.Duration { return ev.at }

// Cancel prevents the event from firing. Canceling an event that already
// fired, was already canceled, or was queued before a Reset is a no-op:
// sequence numbers are never reused, so a stale handle matches nothing.
func (ev *Event) Cancel() {
	ev.canceled = true
	if ev.e != nil {
		ev.e.cancel(ev.seq)
	}
}

// Canceled reports whether Cancel was called on this handle.
func (ev *Event) Canceled() bool { return ev.canceled }

// event is one queue element: the firing time, the tie-breaking sequence
// number and the callback with its payload. A nil fn marks a canceled event,
// discarded when it reaches the root.
type event struct {
	at  time.Duration
	seq uint64
	fn  func(any)
	arg any
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Engine is a single-threaded discrete-event scheduler with a virtual clock.
// The zero value is an engine with the clock at zero and an empty queue.
type Engine struct {
	now      time.Duration
	queue    []event
	seq      uint64
	executed uint64
	stopped  bool
}

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine { return &Engine{} }

// Reset returns the engine to its post-New state — clock at zero, queue
// empty — while keeping the queue's capacity, so back-to-back runs reuse one
// engine without reallocating. The sequence counter keeps counting, which is
// what makes every outstanding Event handle stale; only the order of
// sequence numbers is ever compared, so a reset engine fires exactly like a
// fresh one.
func (e *Engine) Reset() {
	clear(e.queue)
	e.queue = e.queue[:0]
	e.now = 0
	e.executed = 0
	e.stopped = false
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events still queued (including canceled
// events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// Executed returns the number of events that have fired so far.
func (e *Engine) Executed() uint64 { return e.executed }

// call adapts a plain callback to the payload form every event is stored
// in: a func value in an any does not allocate.
func call(fn any) { fn.(func())() }

// Schedule queues fn to run after delay from the current virtual time.
// A negative delay is treated as zero. It panics if fn is nil.
func (e *Engine) Schedule(delay time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	return e.SchedulePayload(delay, call, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the past
// are clamped to the current time. It panics if fn is nil.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) Event {
	if fn == nil {
		panic("sim: ScheduleAt called with nil fn")
	}
	return e.SchedulePayloadAt(t, call, fn)
}

// SchedulePayload queues fn(arg) to run after delay from the current
// virtual time. It exists so hot loops can reuse one long-lived callback
// (typically a bound method stored in a struct field) with a per-event
// payload instead of allocating a fresh closure per event: storing a pointer
// in the any payload does not allocate. A negative delay is treated as
// zero. It panics if fn is nil.
func (e *Engine) SchedulePayload(delay time.Duration, fn func(any), arg any) Event {
	if delay < 0 {
		delay = 0
	}
	return e.SchedulePayloadAt(e.now+delay, fn, arg)
}

// SchedulePayloadAt is SchedulePayload at an absolute virtual time. Times in
// the past are clamped to the current time. It panics if fn is nil.
func (e *Engine) SchedulePayloadAt(t time.Duration, fn func(any), arg any) Event {
	if fn == nil {
		panic("sim: SchedulePayload called with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	ev := Event{e: e, seq: e.seq, at: t}
	e.seq++
	e.push(event{at: t, seq: ev.seq, fn: fn, arg: arg})
	return ev
}

// cancel blanks the queued event with the given sequence number, if there is
// one; its entry is discarded when it reaches the root. The walk is
// deliberate: nothing the product runs cancels an event (DESIGN.md §8), so
// the queue carries no index from handle to position.
func (e *Engine) cancel(seq uint64) {
	for i := range e.queue {
		if e.queue[i].seq == seq {
			e.queue[i].fn, e.queue[i].arg = nil, nil
			return
		}
	}
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue holds no runnable events.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		at, fn, arg := e.queue[0].at, e.queue[0].fn, e.queue[0].arg
		e.pop()
		if fn == nil {
			continue
		}
		e.now = at
		e.executed++
		fn(arg)
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled beyond deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	e.stopped = false
	for !e.stopped {
		at, ok := e.peek()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// peek returns the firing time of the earliest runnable event, discarding
// canceled events found at the root along the way.
func (e *Engine) peek() (time.Duration, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].fn != nil {
			return e.queue[0].at, true
		}
		e.pop()
	}
	return 0, false
}

// Stop makes the active Run or RunUntil return after the current event.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) push(ev event) {
	q := append(e.queue, ev)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q[i].before(&q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop discards the root: callers read what they need of it first, which
// spares copying a 40-byte entry out of the slice and back through a return.
func (e *Engine) pop() {
	q := e.queue
	n := len(q) - 1
	if n > 0 {
		// Sift the hole at the root down to where the last entry belongs.
		last := q[n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(&q[c]) {
				c++
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	q[n] = event{} // drop the callback and payload references
	e.queue = q[:n]
}

// Every schedules fn to run repeatedly with the given period, starting one
// period from now, until the returned Ticker is stopped or the run ends.
func (e *Engine) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %v", period))
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.arm()
	return t
}

// Ticker re-schedules a callback at a fixed virtual-time period.
type Ticker struct {
	engine  *Engine
	period  time.Duration
	fn      func()
	pending Event
	stopped bool
}

// tickerFire is the shared payload callback for all tickers: re-arming
// through it costs no allocation per tick.
func tickerFire(arg any) {
	t := arg.(*Ticker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.pending = t.engine.SchedulePayload(t.period, tickerFire, t)
}

// Stop cancels future ticks. The callback never runs again after Stop.
func (t *Ticker) Stop() {
	t.stopped = true
	t.pending.Cancel()
}
