package main

import "time"

// openLoop is a fixed-rate schedule: operation i is due at start + i·period
// whatever happened to the operations before it. An operation that is
// already overdue when it is asked for (the caller stalled) is handed out at
// once with its lateness, oldest first, and is timed from its due time, so a
// stall shows up in the latency of everything it delayed. The grid never
// re-anchors: operations due after the stall are neither pushed back nor
// drawn together.
type openLoop struct {
	start  time.Time
	period time.Duration
	end    time.Time // operations due at or after end are not issued

	now   func() time.Time
	sleep func(time.Duration)

	next int
}

func newOpenLoop(start time.Time, period, length time.Duration) *openLoop {
	return &openLoop{start: start, period: period, end: start.Add(length), now: time.Now, sleep: time.Sleep}
}

// wait blocks until the next operation is due and returns its index, its due
// time and how late it is being issued. ok is false once the schedule is
// exhausted.
func (o *openLoop) wait() (i int, due time.Time, late time.Duration, ok bool) {
	i = o.next
	due = o.start.Add(time.Duration(i) * o.period)
	if !due.Before(o.end) {
		return i, due, 0, false
	}
	o.next++
	if d := due.Sub(o.now()); d > 0 {
		o.sleep(d)
	}
	if late = o.now().Sub(due); late < 0 {
		late = 0
	}
	return i, due, late, true
}

// sleepUntil sleeps to an absolute time and returns how far past it the
// caller woke (negative when t had not come yet and the sleep fell short).
func sleepUntil(t time.Time) time.Duration {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
	return time.Since(t)
}
