package fault

import (
	"context"
	"time"

	"cloudfog/internal/obs"
)

// WallHooks are the testbed-side callbacks RunWall drives. All are optional;
// a nil hook skips its op. Hooks run on RunWall's goroutine in schedule
// order and must not block for long, or later events slip.
type WallHooks struct {
	// Kill terminates the live supernode process with the given fog ID.
	Kill func(id int64)
	// Recover starts a fresh supernode process under the same ID.
	Recover func(id int64)
	// Link applies the current global link impairment (extra one-way
	// latency plus loss fraction) to every active stream. Called on every
	// impairment window edge with the post-edge values; (0, 0) restores.
	Link func(extra time.Duration, lossFrac float64)
	// CoordPartition pauses (on) or resumes (off) the coordinator process —
	// SIGSTOP/SIGCONT in the multi-process harness.
	CoordPartition func(on bool)
	// Distress puts worker id into (or out of) self-reported overload
	// distress, driving the coordinator's proactive drain.
	Distress func(id int64, on bool)
}

// RunWall replays a compiled schedule in wall-clock time against the live
// runtime, so a testbed chaos run follows the exact event log a simulation
// of the same profile follows. It returns when the profile horizon elapses
// or ctx is canceled, with its kills, recoveries and link windows counted in
// stats (required). Bandwidth ops have no live counterpart.
func RunWall(ctx context.Context, sched *Schedule, hooks WallHooks, stats *obs.FaultStats) error {
	start := time.Now()
	downSince := make(map[int64]time.Time)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	apply := func(ev Event) {
		switch ev.Op {
		case OpKill:
			// A kill aimed at a node that is already down is skipped, as the
			// sim injector skips it; its paired recovery finds the node down
			// from the kill that did happen.
			if _, down := downSince[ev.Node]; down || hooks.Kill == nil {
				return
			}
			hooks.Kill(ev.Node)
			downSince[ev.Node] = time.Now()
			stats.Kills.Inc()
		case OpRecover:
			downAt, ok := downSince[ev.Node]
			if !ok || hooks.Recover == nil {
				return
			}
			delete(downSince, ev.Node)
			hooks.Recover(ev.Node)
			// A fresh process has an unimpaired link; the simulator impairs
			// every segment by time, so re-apply a window it recovers into.
			extra, loss := sched.ExtraLatency(ev.At), sched.LossFrac(ev.At)
			if hooks.Link != nil && (extra != 0 || loss != 0) {
				hooks.Link(extra, loss)
			}
			stats.Recoveries.Inc()
			stats.MTTRNs.Observe(int64(time.Since(downAt)))
		case OpLinkBad, OpLinkGood, OpLatencyOn, OpLatencyOff:
			if hooks.Link == nil {
				return
			}
			// Query the schedule at the event time itself: window starts
			// are inclusive and ends exclusive, so the post-edge state
			// falls out of the same pure lookups the simulator uses.
			hooks.Link(sched.ExtraLatency(ev.At), sched.LossFrac(ev.At))
			if ev.Op == OpLinkBad || ev.Op == OpLatencyOn {
				stats.LinkWindows.Inc()
			}
		case OpCoordDown, OpCoordUp:
			if hooks.CoordPartition == nil {
				return
			}
			hooks.CoordPartition(ev.Op == OpCoordDown)
		case OpDistressOn, OpDistressOff:
			if hooks.Distress == nil {
				return
			}
			hooks.Distress(ev.Node, ev.Op == OpDistressOn)
		}
	}

	for _, ev := range sched.Events {
		if ev.At >= sched.Profile.Duration.Duration {
			// The sim injector never reaches past-horizon events either
			// (RunUntil stops at the horizon); keep the interpreters aligned.
			break
		}
		wait := time.Until(start.Add(ev.At))
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			return ctx.Err()
		}
		apply(ev)
	}
	// Let the horizon tail play out so recoveries near the end settle.
	rest := time.Until(start.Add(sched.Profile.Duration.Duration))
	if rest > 0 {
		timer.Reset(rest)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
	return nil
}
