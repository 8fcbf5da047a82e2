// Package shard runs the scaling experiment's whole population in one
// process: an epoch loop over one fog, with a pool of workers for the part of
// an epoch that is independent per node. (The name is from when nodes had
// owners — a geographic partition with an engine and a monitor per region;
// measured, it cost more than the parallelism it enabled: DESIGN.md §12.)
//
// The run splits into two planes:
//
//   - The control plane — the authoritative core.Fog holding every
//     attachment — lives in continuous virtual time on one sim.Engine: a
//     fault.Injector applies the schedule's kills and recoveries, a
//     health.Monitor (or the injector's oracle draw) times the detections,
//     and each orphan fails over when its detection fires. The engine is
//     single-threaded, so the fog — and the run's rng stream it draws from —
//     evolves in (time, sequence) order at any worker count, including 1.
//
//   - The data plane runs beside it, an epoch at a time: Config.Shards
//     workers share the epoch's segment-level node simulations, each a pure
//     function of (seed, epoch, node) over player specs copied from the fog
//     before the epoch's engine run starts. Workers never read the fog;
//     their results merge as integer tallies at disjoint player indices,
//     never as floats in arrival order.
package shard

import (
	"time"

	"cloudfog/internal/sim"
)

// Clock is the control plane's virtual clock, the view of the runner's
// engine the fog's latency and health apparatus read. The zero value reads 0
// until NewRunner binds it: the fog is built, and its players joined, before
// the runner that owns the engine exists.
type Clock struct {
	engine *sim.Engine
}

// Now returns the control-plane virtual time.
func (c *Clock) Now() time.Duration {
	if c.engine == nil {
		return 0
	}
	return c.engine.Now()
}

// hash64 is one splitmix64 round — the runner's pure per-entity hash for
// ranking nodes into the budgeted sample.
func hash64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
