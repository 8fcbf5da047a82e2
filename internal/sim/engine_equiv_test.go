package sim

import (
	"container/heap"
	"testing"
	"time"
)

// --- Reference implementation: the pre-rewrite container/heap engine. ---
//
// The equivalence test drives this oracle and the production engine with the
// same randomized schedule/cancel/Every/Reset workload and asserts identical
// firing order and clocks, so the value heap, its blanked cancels and the
// payload adapters cannot drift from the documented (at, seq) total order.

type refEvent struct {
	at       time.Duration
	seq      uint64
	fn       func()
	canceled bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

type refEngine struct {
	now   time.Duration
	queue refQueue
	seq   uint64
}

func (e *refEngine) Now() time.Duration { return e.now }

func (e *refEngine) Schedule(delay time.Duration, fn func()) *refEvent {
	if delay < 0 {
		delay = 0
	}
	t := e.now + delay
	ev := &refEvent{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Reset empties the queue and rewinds the clock. Handles to the dropped
// events stay valid pointers to events nothing will ever pop.
func (e *refEngine) Reset() {
	e.queue = nil
	e.now = 0
}

func (e *refEngine) Step() bool {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		e.now = ev.at
		ev.fn()
		return true
	}
	return false
}

func (e *refEngine) RunUntil(deadline time.Duration) {
	for {
		for e.queue.Len() > 0 && e.queue[0].canceled {
			heap.Pop(&e.queue)
		}
		if e.queue.Len() == 0 || e.queue[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// --- Generic driver: one randomized workload, two engines. ---

type firing struct {
	id int
	at time.Duration
}

// driver adapts either engine to the workload below.
type driver struct {
	now      func() time.Duration
	schedule func(delay time.Duration, fn func()) (cancel func())
	every    func(period time.Duration, fn func()) (stop func())
	runUntil func(deadline time.Duration)
	reset    func()
}

func newEngineDriver(e *Engine) driver {
	return driver{
		now: e.Now,
		schedule: func(d time.Duration, fn func()) func() {
			ev := e.Schedule(d, fn)
			return ev.Cancel
		},
		every: func(p time.Duration, fn func()) func() {
			tk := e.Every(p, fn)
			return tk.Stop
		},
		runUntil: e.RunUntil,
		reset:    e.Reset,
	}
}

func newRefDriver(e *refEngine) driver {
	return driver{
		now: e.Now,
		schedule: func(d time.Duration, fn func()) func() {
			ev := e.Schedule(d, fn)
			return func() { ev.canceled = true }
		},
		every: func(p time.Duration, fn func()) func() {
			// Mirror Ticker's semantics: fire, then re-arm unless stopped.
			stopped := false
			var pending *refEvent
			var tick func()
			tick = func() {
				if stopped {
					return
				}
				fn()
				if !stopped {
					pending = e.Schedule(p, tick)
				}
			}
			pending = e.Schedule(p, tick)
			return func() {
				stopped = true
				if pending != nil {
					pending.canceled = true
				}
			}
		},
		runUntil: e.RunUntil,
		reset:    e.Reset,
	}
}

// runWorkload drives one engine through the randomized workload and returns
// the firing log. All randomness comes from a private Rand seeded
// identically for both engines; draws happen inside callbacks, so the drawn
// sequence itself verifies the firing order.
func runWorkload(t *testing.T, d driver, seed int64) ([]firing, time.Duration) {
	t.Helper()
	rng := NewRand(seed)
	var log []firing
	var cancels []func()
	var tickerStops []func()
	nextID := 0
	// Firings after which events stop spawning, and tickers ever started;
	// both are raised after the Reset.
	limit, maxTickers := 400, 8
	var spawn func(id int)
	spawn = func(id int) {
		log = append(log, firing{id, d.now()})
		if len(log) >= limit {
			return
		}
		switch rng.Intn(11) {
		case 0, 1, 2, 3: // schedule one successor
			id := nextID
			nextID++
			cancels = append(cancels, d.schedule(time.Duration(rng.Intn(5_000_000)), func() { spawn(id) }))
		case 4: // schedule two, tie times often
			delay := time.Duration(rng.Intn(3)) * time.Millisecond
			for k := 0; k < 2; k++ {
				id := nextID
				nextID++
				cancels = append(cancels, d.schedule(delay, func() { spawn(id) }))
			}
		case 5: // cancel a random outstanding handle (possibly already fired)
			if len(cancels) > 0 {
				cancels[rng.Intn(len(cancels))]()
			}
			id := nextID
			nextID++
			cancels = append(cancels, d.schedule(time.Duration(rng.Intn(2_000_000)), func() { spawn(id) }))
		case 6: // start a ticker
			if len(tickerStops) < maxTickers {
				id := nextID
				nextID++
				tickerStops = append(tickerStops, d.every(time.Duration(1+rng.Intn(4))*time.Millisecond, func() { spawn(id) }))
			}
		case 7: // stop a random ticker
			if len(tickerStops) > 0 {
				tickerStops[rng.Intn(len(tickerStops))]()
			}
		case 8: // zero-delay event (fires at the current instant, later seq)
			id := nextID
			nextID++
			cancels = append(cancels, d.schedule(0, func() { spawn(id) }))
		case 9: // negative delay clamps to now
			id := nextID
			nextID++
			cancels = append(cancels, d.schedule(-time.Millisecond, func() { spawn(id) }))
		case 10: // cancel-after-fire: the event cancels its own handle, then spawns at the same instant
			id := nextID
			nextID++
			var self func()
			self = d.schedule(time.Duration(rng.Intn(2_000_000)), func() {
				self()
				spawn(id)
			})
			cancels = append(cancels, self)
		}
	}
	plant := func() {
		for i := 0; i < 25; i++ {
			id := nextID
			nextID++
			cancels = append(cancels, d.schedule(time.Duration(rng.Intn(1_000_000)), func() { spawn(id) }))
		}
	}
	// Alternate RunUntil horizons so deadline clamping is exercised too.
	sweep := func() {
		for h := 5 * time.Millisecond; h <= 200*time.Millisecond; h += 5 * time.Millisecond {
			d.runUntil(h)
		}
	}
	plant()
	sweep()
	// Mid-run Reset: the clock rewinds with events and tickers still queued,
	// and every handle in cancels and tickerStops goes stale — cases 5 and 7
	// keep drawing from them.
	beforeReset := len(log)
	d.reset()
	if now := d.now(); now != 0 {
		t.Fatalf("clock after Reset = %v, want 0", now)
	}
	limit, maxTickers = 800, 16
	plant()
	sweep()
	if after := len(log) - beforeReset; beforeReset < 150 || after < 150 {
		t.Fatalf("seed %d: %d firings before the Reset and %d after; want 150 on each side", seed, beforeReset, after)
	}
	for _, stop := range tickerStops {
		stop()
	}
	d.runUntil(time.Second)
	return log, d.now()
}

func TestEngineMatchesHeapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		gotLog, gotNow := runWorkload(t, newEngineDriver(New()), seed)
		wantLog, wantNow := runWorkload(t, newRefDriver(&refEngine{}), seed)
		if gotNow != wantNow {
			t.Fatalf("seed %d: clock %v, reference %v", seed, gotNow, wantNow)
		}
		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: fired %d events, reference fired %d", seed, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, gotLog[i], wantLog[i])
			}
		}
		if len(gotLog) < 400 {
			t.Fatalf("seed %d: workload fired only %d events; raise the horizon", seed, len(gotLog))
		}
	}
}

// TestCancelSafeAfterSlotReuse pins what a stale handle is promised: one
// whose event already fired, and one from before a Reset, cancel nothing —
// also when later events are queued for the very instant the stale one held.
func TestCancelSafeAfterSlotReuse(t *testing.T) {
	e := New()
	fired := e.Schedule(time.Millisecond, func() {})
	e.Run()
	ran := 0
	fresh := e.ScheduleAt(fired.At(), func() { ran++ })
	fired.Cancel()
	e.Run()
	if ran != 1 || fresh.Canceled() {
		t.Fatalf("Cancel on a fired handle: later event ran %d times, canceled=%v", ran, fresh.Canceled())
	}

	dropped := e.Schedule(time.Millisecond, func() { t.Fatal("event queued before Reset ran") })
	e.Reset()
	// Enough events that a sequence counter rewound by Reset would hand one
	// of them the dropped event's number.
	ran = 0
	for i := 0; i < 4; i++ {
		e.ScheduleAt(dropped.At(), func() { ran++ })
	}
	dropped.Cancel()
	e.Run()
	if ran != 4 {
		t.Fatalf("Cancel on a pre-Reset handle: %d of 4 later events ran", ran)
	}
}

// TestPendingCountsCanceledUntilPopped pins the lazy discard: Cancel blanks
// the queued entry where it lies, and the entry leaves the queue only when
// it reaches the root.
func TestPendingCountsCanceledUntilPopped(t *testing.T) {
	e := New()
	e.Schedule(time.Millisecond, func() {})
	ev := e.Schedule(2*time.Millisecond, func() { t.Fatal("canceled event ran") })
	e.Schedule(3*time.Millisecond, func() {})
	ev.Cancel()
	if e.Pending() != 3 {
		t.Fatalf("pending after Cancel = %d, want 3", e.Pending())
	}
	e.Step()
	if e.Pending() != 2 {
		t.Fatalf("pending after first event = %d, want 2", e.Pending())
	}
	e.Step() // pops the canceled entry, then fires the third event
	if e.Pending() != 0 || e.Executed() != 2 {
		t.Fatalf("pending = %d, executed = %d; want 0, 2", e.Pending(), e.Executed())
	}
}

// TestScheduleStepZeroAllocs pins the tentpole contract: steady-state
// Schedule+Step allocates nothing once the queue is warm.
func TestScheduleStepZeroAllocs(t *testing.T) {
	e := New()
	fn := func() {}
	e.Schedule(time.Millisecond, fn) // warm the queue
	e.Step()
	if avg := testing.AllocsPerRun(200, func() {
		e.Schedule(time.Millisecond, fn)
		e.Step()
	}); avg != 0 {
		t.Fatalf("Schedule+Step allocates %.1f/op, want 0", avg)
	}
}

// TestSchedulePayloadZeroAllocs additionally checks that a pointer payload
// does not box: the payload path is what the monitor's heartbeats ride.
func TestSchedulePayloadZeroAllocs(t *testing.T) {
	e := New()
	type payload struct{ n int }
	p := &payload{}
	fn := func(arg any) { arg.(*payload).n++ }
	e.SchedulePayload(time.Millisecond, fn, p)
	e.Step()
	if avg := testing.AllocsPerRun(200, func() {
		e.SchedulePayload(time.Millisecond, fn, p)
		e.Step()
	}); avg != 0 {
		t.Fatalf("SchedulePayload+Step allocates %.1f/op, want 0", avg)
	}
	if p.n != 202 { // AllocsPerRun runs the func one extra warm-up time
		t.Fatalf("payload callback ran %d times, want 202", p.n)
	}
}

// TestTickerZeroAllocsPerTick verifies the shared tickerFire callback:
// re-arming a ticker costs nothing per tick.
func TestTickerZeroAllocsPerTick(t *testing.T) {
	e := New()
	ticks := 0
	tk := e.Every(time.Millisecond, func() { ticks++ })
	e.Step() // warm
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("ticker tick allocates %.1f/op, want 0", avg)
	}
	tk.Stop()
	if ticks != 202 { // AllocsPerRun runs the func one extra warm-up time
		t.Fatalf("ticker fired %d times, want 202", ticks)
	}
}

func TestSchedulePayloadAtClampsPast(t *testing.T) {
	e := New()
	e.Schedule(10*time.Millisecond, func() {
		ev := e.SchedulePayloadAt(time.Millisecond, func(any) {}, nil)
		if ev.At() != 10*time.Millisecond {
			t.Fatalf("past payload event scheduled at %v, want now (10ms)", ev.At())
		}
	})
	e.Run()
}

func TestZeroValueEventHandle(t *testing.T) {
	var ev Event
	ev.Cancel() // must not panic
	if !ev.Canceled() {
		t.Fatal("zero handle did not record Cancel")
	}
	if ev.At() != 0 {
		t.Fatal("zero handle has nonzero At")
	}
}
