package live

import "time"

// frameGuardDiv sets the clock's tolerance: an update whose distance from its
// predecessor is within period/frameGuardDiv of the frame period counts as
// arriving at the stream's own cadence, and a locked clock waits that much
// past the period before rendering without one. An eighth of a frame (4 ms
// at 30 fps) is several times the jitter of a cloud tick plus one link hop,
// and far from the nearest other rate a cloud is run at here (20 ms and
// 50 ms ticks under 33 ms frames), so the clock needs no tuning per
// deployment.
const frameGuardDiv = 8

// frameClock decides when a supernode renders. The cloud's deltas carry the
// players' actions, so a frame rendered the moment a delta lands shows an
// action a whole render-tick wait sooner than a frame rendered on an unrelated
// timer — but only a cloud ticking at the frame rate may drive the frames,
// or the stream's bitrate (segment bytes × frames per second) would follow
// the cloud's tick. The clock therefore locks onto the updates' cadence, not
// their phase: an update one period after the previous one renders a frame
// on arrival; anything else (a cloud ticking at another rate, a late delta,
// silence) leaves the frames to a deadline that advances by exactly one
// period, which is what a free-running ticker would do.
//
// It is passive and clock-fed like health.Detector: no goroutines, no
// time.Now; the render loop tells it what happened and when.
type frameClock struct {
	period time.Duration
	guard  time.Duration

	last       time.Time // the latest frame
	lastUpdate time.Time // the latest update; zero before the first
	// locked: the latest frame was rendered on an update, so the next is
	// expected one period on and the deadline stands back by the guard to let
	// it win. Any deadline frame unlocks.
	locked bool
}

func newFrameClock(period time.Duration, start time.Time) *frameClock {
	return &frameClock{period: period, guard: period / frameGuardDiv, last: start}
}

// OnUpdate records a world update applied at now and reports whether to
// render a frame on it. Locking in costs one short frame interval: the
// update-driven frame follows the last deadline frame by less than a period.
func (c *frameClock) OnUpdate(now time.Time) (render bool) {
	first := c.lastUpdate.IsZero()
	off := now.Sub(c.lastUpdate) - c.period
	c.lastUpdate = now
	if first || off < -c.guard || off > c.guard {
		return false
	}
	c.locked = true
	c.last = now
	return true
}

// Deadline is when to render a frame if no update has triggered one first.
func (c *frameClock) Deadline() time.Time {
	if c.locked {
		return c.last.Add(c.period + c.guard)
	}
	return c.last.Add(c.period)
}

// OnDeadline records a frame rendered because Deadline passed. The frame
// counts as rendered at the deadline, not at now, so timer latency does not
// accumulate into drift; only a loop more than a period behind starts over
// from now instead of rendering a burst to catch up.
func (c *frameClock) OnDeadline(now time.Time) {
	d := c.Deadline()
	if now.Sub(d) > c.period {
		d = now
	}
	c.last = d
	c.locked = false
}
