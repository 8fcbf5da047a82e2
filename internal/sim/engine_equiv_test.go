package sim

import (
	"container/heap"
	"testing"
	"time"
)

// --- Reference implementation: the pre-rewrite container/heap engine. ---
//
// The equivalence test drives this oracle and the production engine with the
// same randomized schedule/Every/Reset workload and asserts identical firing
// order and clocks, so the value heap and the payload adapters cannot drift
// from the documented (at, seq) total order.

type refEvent struct {
	at  time.Duration
	seq uint64
	fn  func()
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

func (e *refEngine) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&e.queue, &refEvent{at: e.now + delay, seq: e.seq, fn: fn})
	e.seq++
}

// Reset empties the queue and rewinds the clock.
func (e *refEngine) Reset() {
	e.queue = nil
	e.now = 0
}

func (e *refEngine) RunUntil(deadline time.Duration) {
	for e.queue.Len() > 0 && e.queue[0].at <= deadline {
		ev := heap.Pop(&e.queue).(*refEvent)
		e.now = ev.at
		ev.fn()
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
	schedule func(delay time.Duration, fn func())
	every    func(period time.Duration, fn func())
	runUntil func(deadline time.Duration)
	reset    func()
}

func newEngineDriver(e *Engine) driver {
	return driver{now: e.Now, schedule: e.Schedule, every: e.Every, runUntil: e.RunUntil, reset: e.Reset}
}

func newRefDriver(e *refEngine) driver {
	return driver{
		now:      e.Now,
		schedule: e.Schedule,
		every: func(p time.Duration, fn func()) {
			// Mirror the engine's ticker: fire, then re-arm one period on.
			var tick func()
			tick = func() {
				fn()
				e.Schedule(p, tick)
			}
			e.Schedule(p, tick)
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
	nextID := 0
	tickers := 0
	// Firings after which events stop spawning, and tickers ever started;
	// both are raised after the Reset. Tickers never stop, so their ticks
	// keep logging past the limit: the post-Reset limit counts from the Reset.
	limit, maxTickers := 400, 8
	var spawn func(id int)
	after := func(delay time.Duration) {
		id := nextID
		nextID++
		d.schedule(delay, func() { spawn(id) })
	}
	spawn = func(id int) {
		log = append(log, firing{id, d.now()})
		if len(log) >= limit {
			return
		}
		switch rng.Intn(8) {
		case 0, 1, 2, 3: // schedule one successor
			after(time.Duration(rng.Intn(5_000_000)))
		case 4: // schedule two, tie times often
			delay := time.Duration(rng.Intn(3)) * time.Millisecond
			after(delay)
			after(delay)
		case 5: // start a ticker
			if tickers < maxTickers {
				tickers++
				id := nextID
				nextID++
				d.every(time.Duration(1+rng.Intn(4))*time.Millisecond, func() { spawn(id) })
			}
		case 6: // zero-delay event (fires at the current instant, later seq)
			after(0)
		case 7: // negative delay clamps to now
			after(-time.Millisecond)
		}
	}
	plant := func() {
		for i := 0; i < 25; i++ {
			after(time.Duration(rng.Intn(1_000_000)))
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
	// and all of them are dropped.
	beforeReset := len(log)
	d.reset()
	if now := d.now(); now != 0 {
		t.Fatalf("clock after Reset = %v, want 0", now)
	}
	limit, maxTickers = beforeReset+800, 16
	plant()
	sweep()
	if after := len(log) - beforeReset; beforeReset < 150 || after < 150 {
		t.Fatalf("seed %d: %d firings before the Reset and %d after; want 150 on each side", seed, beforeReset, after)
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

// TestTickerZeroAllocsPerTick verifies the shared tick callback:
// re-arming a ticker costs nothing per tick.
func TestTickerZeroAllocsPerTick(t *testing.T) {
	e := New()
	ticks := 0
	e.Every(time.Millisecond, func() { ticks++ })
	e.Step() // warm
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("ticker tick allocates %.1f/op, want 0", avg)
	}
	if ticks != 202 { // AllocsPerRun runs the func one extra warm-up time
		t.Fatalf("ticker fired %d times, want 202", ticks)
	}
}

func TestSchedulePayloadAtClampsPast(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.schedulePayloadAt(time.Millisecond, func(any) { at = e.Now() }, nil)
	})
	drain(e)
	if at != 10*time.Millisecond {
		t.Fatalf("past payload event fired at %v, want now (10ms)", at)
	}
}
