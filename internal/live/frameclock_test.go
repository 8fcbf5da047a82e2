package live

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

const ms = time.Millisecond

type clockFrame struct {
	at       time.Duration // since the clock's start
	onUpdate bool
}

// runFrameClock feeds a clock the given update times (offsets from its
// start, ascending) the way renderLoop does — whichever of the next update
// and the deadline comes first, an update winning a tie — until end, and
// returns the frames it rendered.
func runFrameClock(fps int, updates []time.Duration, end time.Duration) []clockFrame {
	t0 := time.Unix(1_700_000_000, 0)
	c := newFrameClock(time.Second/time.Duration(fps), t0)
	var frames []clockFrame
	for {
		d := c.Deadline().Sub(t0)
		if len(updates) > 0 && updates[0] <= d {
			u := updates[0]
			updates = updates[1:]
			if u > end {
				return frames
			}
			if c.OnUpdate(t0.Add(u)) {
				frames = append(frames, clockFrame{u, true})
			}
			continue
		}
		if d > end {
			return frames
		}
		c.OnDeadline(t0.Add(d))
		frames = append(frames, clockFrame{d, false})
	}
}

// every returns update times from phase to end, step apart, each shifted by
// the next entry of jitter in turn.
func every(phase, step, end time.Duration, jitter ...time.Duration) []time.Duration {
	var out []time.Duration
	for i, t := 0, phase; t <= end; i, t = i+1, t+step {
		if len(jitter) > 0 {
			out = append(out, t+jitter[i%len(jitter)])
		} else {
			out = append(out, t)
		}
	}
	return out
}

// checkFrameRate fails if any one-second window holds more frames than a
// stream locked at the fastest cadence the guard admits, plus the one short
// interval a lock-in costs.
func checkFrameRate(t *testing.T, fps int, frames []clockFrame) {
	t.Helper()
	limit := (fps*(frameGuardDiv+1)+frameGuardDiv-1)/frameGuardDiv + 1
	for i, j := 0, 0; j < len(frames); j++ {
		for frames[j].at-frames[i].at >= time.Second {
			i++
		}
		if n := j - i + 1; n > limit {
			t.Fatalf("%d frames in the second ending at %v, limit %d", n, frames[j].at, limit)
		}
	}
}

func TestFrameClockLocksOntoUpdatesAtTheFrameRate(t *testing.T) {
	const fps = 30
	period := time.Second / fps
	jitter := []time.Duration{0, ms, -ms, ms / 2, -ms / 2, ms, 0, -ms}
	for phase := ms; phase < period; phase += 2 * ms {
		updates := every(phase, period, 3*time.Second, jitter...)
		frames := runFrameClock(fps, updates, 3*time.Second+ms)
		checkFrameRate(t, fps, frames)
		third := updates[2]
		next := 2
		for _, f := range frames {
			if f.at < third {
				continue
			}
			if !f.onUpdate || f.at != updates[next] {
				t.Fatalf("phase %v: frame at %v (update-triggered %v), want one on the update at %v",
					phase, f.at, f.onUpdate, updates[next])
			}
			next++
		}
		if next != len(updates) {
			t.Fatalf("phase %v: %d of %d updates from the third on rendered a frame", phase, next-2, len(updates)-2)
		}
	}
}

func TestFrameClockFreeRunsAtOtherUpdateRates(t *testing.T) {
	const fps = 30
	period := time.Second / fps
	for _, tick := range []time.Duration{20 * ms, 50 * ms, 10 * ms} {
		frames := runFrameClock(fps, every(3*ms, tick, 3*time.Second), 3*time.Second)
		checkFrameRate(t, fps, frames)
		if want := int(3 * time.Second / period); len(frames) != want {
			t.Fatalf("tick %v: %d frames in 3 s, want %d", tick, len(frames), want)
		}
		for i, f := range frames {
			if want := time.Duration(i+1) * period; f.onUpdate || f.at != want {
				t.Fatalf("tick %v: frame %d at %v (update-triggered %v), want a ticker's %v", tick, i, f.at, f.onUpdate, want)
			}
		}
	}
}

func TestFrameClockKeepsTheFrameRateWhenUpdatesStop(t *testing.T) {
	const fps = 30
	period := time.Second / fps
	updates := every(7*ms, period, time.Second)
	lastUpdate := updates[len(updates)-1]
	frames := runFrameClock(fps, updates, 3*time.Second)
	checkFrameRate(t, fps, frames)
	var after []clockFrame
	for _, f := range frames {
		if f.at > lastUpdate {
			after = append(after, f)
		}
	}
	if want := int((3*time.Second - lastUpdate) / period); len(after) < want-1 {
		t.Fatalf("%d frames after the last update, want at least %d", len(after), want-1)
	}
	for i, f := range after {
		want := lastUpdate + period + period/frameGuardDiv + time.Duration(i)*period
		if f.onUpdate || f.at != want {
			t.Fatalf("frame %d after the last update at %v (update-triggered %v), want %v", i, f.at, f.onUpdate, want)
		}
	}
}

func TestFrameClockRelocksAfterALateUpdate(t *testing.T) {
	const fps = 30
	period := time.Second / fps
	for _, late := range []time.Duration{5 * ms, 10 * ms, 20 * ms, 30 * ms} {
		t.Run(fmt.Sprint(late), func(t *testing.T) {
			updates := every(7*ms, period, 2*time.Second)
			const k = 30
			updates[k] += late
			frames := runFrameClock(fps, updates, 2*time.Second)
			checkFrameRate(t, fps, frames)
			// A stale frame is a deadline frame with no update since the
			// frame before it.
			stale, u := 0, 0
			for _, f := range frames {
				fresh := false
				for ; u < len(updates) && updates[u] <= f.at; u++ {
					fresh = true
				}
				if !f.onUpdate && !fresh && f.at > updates[1] {
					stale++
				}
			}
			if stale > 1 {
				t.Errorf("%d stale deadline frames, want at most 1", stale)
			}
			for _, f := range frames {
				if f.at >= updates[k+2] && !f.onUpdate {
					t.Fatalf("deadline frame at %v, after the second update (%v) past the late one", f.at, updates[k+2])
				}
			}
		})
	}
}

// TestFrameClockRateUnderJitter pins what jitter beyond the guard costs: the
// clock keeps unlocking and locking back in, each lock-in a short interval,
// and the mean frame rate rises — by a few percent, never past the rate of a
// stream locked at the fastest cadence the guard admits.
func TestFrameClockRateUnderJitter(t *testing.T) {
	const (
		fps = 30
		run = 60 * time.Second
	)
	period := time.Second / fps
	for _, jitter := range []time.Duration{ms, 3 * ms, 5 * ms, 8 * ms, 12 * ms, 16 * ms} {
		rng := rand.New(rand.NewSource(int64(jitter)))
		var updates []time.Duration
		for at := 50 * ms; at < run; at += period {
			updates = append(updates, at+time.Duration(rng.Int63n(int64(2*jitter)))-jitter)
		}
		frames := runFrameClock(fps, updates, run)
		rate := float64(len(frames)) / run.Seconds()
		if rate < fps-0.5 || rate > fps*float64(frameGuardDiv+1)/frameGuardDiv {
			t.Errorf("jitter ±%v: %.2f frames/s, want %d to %.2f", jitter, rate, fps, fps*float64(frameGuardDiv+1)/frameGuardDiv)
		}
	}
}
