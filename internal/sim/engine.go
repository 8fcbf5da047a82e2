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
// the simulator schedules is ever withdrawn, so an event is fire-and-forget.
package sim

import (
	"fmt"
	"time"
)

// event is one queue element: the firing time, the tie-breaking sequence
// number and the callback with its payload.
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
	now   time.Duration
	queue []event
	seq   uint64
}

// New returns an engine with the clock at zero and an empty event queue.
func New() *Engine { return &Engine{} }

// Reset returns the engine to its post-New state — clock at zero, queue
// empty — while keeping the queue's capacity, so back-to-back runs reuse one
// engine without reallocating. The sequence counter keeps counting; only the
// order of sequence numbers is ever compared, so a reset engine fires exactly
// like a fresh one.
func (e *Engine) Reset() {
	clear(e.queue)
	e.queue = e.queue[:0]
	e.now = 0
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return len(e.queue) }

// call adapts a plain callback to the payload form every event is stored
// in: a func value in an any does not allocate.
func call(fn any) { fn.(func())() }

// Schedule queues fn to run after delay from the current virtual time.
// A negative delay is treated as zero. It panics if fn is nil.
func (e *Engine) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("sim: Schedule called with nil fn")
	}
	e.SchedulePayload(delay, call, fn)
}

// ScheduleAt queues fn to run at absolute virtual time t. Times in the past
// are clamped to the current time. It panics if fn is nil.
func (e *Engine) ScheduleAt(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: ScheduleAt called with nil fn")
	}
	e.schedulePayloadAt(t, call, fn)
}

// SchedulePayload queues fn(arg) to run after delay from the current
// virtual time. It exists so hot loops can reuse one long-lived callback
// (typically a bound method stored in a struct field) with a per-event
// payload instead of allocating a fresh closure per event: storing a pointer
// in the any payload does not allocate. A negative delay is treated as
// zero. It panics if fn is nil.
func (e *Engine) SchedulePayload(delay time.Duration, fn func(any), arg any) {
	if delay < 0 {
		delay = 0
	}
	e.schedulePayloadAt(e.now+delay, fn, arg)
}

// schedulePayloadAt is SchedulePayload at an absolute virtual time. Times in
// the past are clamped to the current time. It panics if fn is nil.
func (e *Engine) schedulePayloadAt(t time.Duration, fn func(any), arg any) {
	if fn == nil {
		panic("sim: SchedulePayload called with nil fn")
	}
	if t < e.now {
		t = e.now
	}
	e.push(event{at: t, seq: e.seq, fn: fn, arg: arg})
	e.seq++
}

// Step executes the next event, advancing the clock to its timestamp.
// It returns false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	at, fn, arg := e.queue[0].at, e.queue[0].fn, e.queue[0].arg
	e.pop()
	e.now = at
	fn(arg)
	return true
}

// RunUntil executes events with timestamps <= deadline and then advances the
// clock to deadline. Events scheduled beyond deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

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
// period from now, until a Reset empties the queue.
func (e *Engine) Every(period time.Duration, fn func()) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Every called with non-positive period %v", period))
	}
	e.SchedulePayload(period, tick, &ticker{engine: e, period: period, fn: fn})
}

// ticker re-schedules a callback at a fixed virtual-time period.
type ticker struct {
	engine *Engine
	period time.Duration
	fn     func()
}

// tick is the shared payload callback for all tickers: re-arming through it
// costs no allocation per tick.
func tick(arg any) {
	t := arg.(*ticker)
	t.fn()
	t.engine.SchedulePayload(t.period, tick, t)
}
