package sim

import (
	"testing"
	"time"
)

// drain fires every queued event, and every event those schedule.
func drain(e *Engine) {
	for e.Step() {
	}
}

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	drain(e)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran out of order: %v", order)
	}
	if e.Now() != 30*time.Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestEngineBreaksTiesByScheduleOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	drain(e)
	for i, got := range order {
		if got != i {
			t.Fatalf("tie-break violated at position %d: %v", i, order)
		}
	}
}

func TestEngineClockAdvancesDuringEvent(t *testing.T) {
	e := New()
	var sawNow time.Duration
	e.Schedule(42*time.Millisecond, func() { sawNow = e.Now() })
	drain(e)
	if sawNow != 42*time.Millisecond {
		t.Fatalf("Now() inside event = %v, want 42ms", sawNow)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var fired []time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(5*time.Millisecond, func() { fired = append(fired, e.Now()) })
	})
	drain(e)
	if len(fired) != 1 || fired[0] != 15*time.Millisecond {
		t.Fatalf("nested event fired at %v, want [15ms]", fired)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	e := New()
	var ran []time.Duration
	for _, d := range []time.Duration{5, 10, 15, 20} {
		d := d * time.Millisecond
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.RunUntil(12 * time.Millisecond)
	if len(ran) != 2 {
		t.Fatalf("ran %d events, want 2 (5ms, 10ms): %v", len(ran), ran)
	}
	if e.Now() != 12*time.Millisecond {
		t.Fatalf("clock = %v, want 12ms", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	drain(e)
	if len(ran) != 4 {
		t.Fatalf("remaining events did not run: %v", ran)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	e := New()
	e.RunUntil(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s", e.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := New()
	var ticks []time.Duration
	e.Every(10*time.Millisecond, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(35 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want[i])
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the one re-armed tick", e.Pending())
	}
}

func TestScheduleNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.Schedule(-5*time.Millisecond, func() { at = e.Now() })
	})
	drain(e)
	if at != 10*time.Millisecond {
		t.Fatalf("negative delay fired at %v, want now (10ms)", at)
	}
}

func TestScheduleAtPastClampsToNow(t *testing.T) {
	e := New()
	var at time.Duration
	e.Schedule(10*time.Millisecond, func() {
		e.ScheduleAt(time.Millisecond, func() { at = e.Now() })
	})
	drain(e)
	if at != 10*time.Millisecond {
		t.Fatalf("past event fired at %v, want now (10ms)", at)
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New().Schedule(0, nil)
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		e := New()
		r := NewRand(7)
		var out []int
		var spawn func()
		spawn = func() {
			out = append(out, r.Intn(1000))
			if len(out) < 50 {
				e.Schedule(r.Exp(10), spawn)
			}
		}
		e.Schedule(0, spawn)
		drain(e)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// BenchmarkEngineChain is a chain of events, each scheduling the next: one
// push and one pop on a queue of one (EXPERIMENTS.md, PR 23).
func BenchmarkEngineChain(b *testing.B) {
	e := New()
	fired := 0
	var next func()
	next = func() {
		if fired++; fired < b.N {
			e.Schedule(time.Millisecond, next)
		}
	}
	e.Schedule(time.Millisecond, next)
	b.ResetTimer()
	for e.Step() {
	}
}

// BenchmarkEnginePending2000 keeps 2 000 payload events queued, each
// re-arming itself one period on — a health.Monitor's heartbeats.
func BenchmarkEnginePending2000(b *testing.B) {
	const pending = 2000
	e := New()
	var beat func(any)
	beat = func(arg any) { e.SchedulePayload(time.Second, beat, arg) }
	for i := 0; i < pending; i++ {
		e.SchedulePayload(time.Duration(i)*time.Second/pending, beat, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
