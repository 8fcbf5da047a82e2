// Package shard runs the scaling experiment's whole population in one
// process: an epoch loop over one fog, with a pool of workers for the part of
// an epoch that is independent per node. (The name is from when nodes had
// owners — a geographic partition with an engine and a monitor per region;
// measured, it cost more than the parallelism it enabled: DESIGN.md §12.)
//
// The run splits into two planes:
//
//   - The control plane — the authoritative core.Fog holding every
//     attachment — is mutated ONLY at epoch barriers, serially, applying
//     the epoch's messages in one canonical order. The order is a pure
//     function of the message contents, so the fog — and the run's single
//     rng stream it draws from — evolves identically at any worker count,
//     including 1.
//
//   - The data plane runs between barriers: one heartbeat monitor on one
//     sim.Engine (absolute virtual time), whose detector state is a pure
//     function of the fault schedule, and beside it Config.Shards workers
//     sharing the epoch's segment-level node simulations, each a pure
//     function of (seed, epoch, node). Results merge as integer tallies at
//     disjoint player indices (order-free) or as messages (canonically
//     ordered), never as floats in arrival order.
package shard

import (
	"sort"
	"time"
)

// Clock is the control plane's virtual clock: the fog's latency and health
// apparatus read Now, and the runner advances it at barriers (to each
// message's timestamp while applying, then to the epoch end). It stands in
// for the serial path's engine.Now.
type Clock struct {
	now time.Duration
}

// Now returns the control-plane virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// advance moves the clock forward; it never goes backward.
func (c *Clock) advance(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// MsgKind orders the message kinds inside one timestamp: a kill
// precedes a recovery precedes a detection, matching the serial injector's
// causality (a node cannot be detected down before it is down).
type MsgKind uint8

const (
	// MsgKill fails a supernode on the control plane.
	MsgKill MsgKind = iota
	// MsgRecover re-registers a fresh instance of a recovered supernode.
	MsgRecover
	// MsgDetect reports a failure detection: the node's stashed orphans
	// fail over now.
	MsgDetect
)

// Msg is one control-plane event, collected over an epoch and applied at its
// barrier in canonical order. (Epoch, At, Kind, Node) is a unique key — the
// fault schedule never emits two identical ops for one node at one instant,
// and a node detects at most once per down-transition — so the order is a
// function of the messages alone.
type Msg struct {
	Epoch int
	At    time.Duration
	Kind  MsgKind
	Node  int64
}

// sortMsgs orders messages canonically: (Epoch, At, Kind, Node).
func sortMsgs(ms []Msg) {
	sort.Slice(ms, func(a, b int) bool {
		x, y := ms[a], ms[b]
		switch {
		case x.Epoch != y.Epoch:
			return x.Epoch < y.Epoch
		case x.At != y.At:
			return x.At < y.At
		case x.Kind != y.Kind:
			return x.Kind < y.Kind
		}
		return x.Node < y.Node
	})
}

// hash64 is one splitmix64 round — the runner's pure per-entity hash for
// oracle detection delays.
func hash64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
