package fault

import (
	"context"
	"time"

	"cloudfog/internal/obs"
)

// WallHooks are the live-plane callbacks RunWall drives. All are optional;
// a nil hook skips its op. Hooks run on RunWall's goroutine in schedule
// order and must not block for long, or later events slip.
type WallHooks struct {
	// Kill terminates the live supernode process with the given fog ID.
	Kill func(id int64)
	// Recover starts a fresh supernode process under the same ID and
	// reports whether it came back; a node that did not stays down.
	Recover func(id int64) bool
	// Link applies the current global link impairment (extra one-way
	// latency plus loss fraction) to every active stream. Called on every
	// loss or latency window edge with the post-edge values; (0, 0)
	// restores.
	Link func(extra time.Duration, lossFrac float64)
}

func (h WallHooks) kill(ev Event) bool {
	if h.Kill == nil {
		return false
	}
	h.Kill(ev.Node)
	return true
}

func (h WallHooks) recover(id int64) bool { return h.Recover != nil && h.Recover(id) }

// RunWall replays a compiled schedule in wall-clock time against the live
// runtime, through the interpreter the sim Injector uses, so a live chaos
// run follows the exact event log a simulation of the same profile follows.
// It returns when the profile horizon elapses or ctx is canceled, and its
// kills, recoveries and link windows land in stats (required) as it returns.
func RunWall(ctx context.Context, sched *Schedule, hooks WallHooks, stats *obs.FaultStats) error {
	r := newReplay(sched, stats)
	r.link = hooks.Link
	defer r.fold()
	start := time.Now()
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	until := func(at time.Duration) error {
		if wait := time.Until(start.Add(at)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
		}
		return ctx.Err()
	}
	horizon := sched.Profile.Duration.Duration
	for _, ev := range r.due() {
		if ev.At == horizon {
			// The wall run ends at the horizon instant, where the engine's
			// RunUntil(horizon) still fires an event.
			break
		}
		if err := until(ev.At); err != nil {
			return err
		}
		r.apply(hooks, time.Since(start), ev)
	}
	// Let the horizon tail play out so recoveries near the end settle.
	return until(horizon)
}
