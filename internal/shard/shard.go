// Package shard partitions the simulated world by geographic region and
// runs one simulation slice per shard between epoch barriers, so a single
// run can use every core while staying bit-identical to the serial path.
//
// The architecture splits the planes:
//
//   - The control plane — the authoritative core.Fog holding every
//     attachment — is mutated ONLY at epoch barriers, serially, applying
//     the epoch's cross-shard messages in one canonical order. The order is
//     a pure function of the message contents (never of the partition), so
//     the fog — and the run's single rng stream it draws from — evolves
//     identically at any shard count, including 1.
//
//   - The data plane — heartbeat monitors and segment-level QoE node
//     simulations — is owned by shards. Each shard has its own sim.Engine
//     (absolute virtual time, shared origin), its own sim.Rand stream split
//     deterministically from the run seed, and runs concurrently with the
//     other shards between barriers. Shard-local results merge as integer
//     tallies (order-free) or as messages (canonically ordered), never as
//     floats in arrival order.
//
// Ownership is fixed at t=0 from the cloud's estimated supernode positions
// and never moves, so a node's heartbeat chain stays on one engine for the
// whole run and its detector state is a pure function of the fault
// schedule, not of the partition.
package shard

import (
	"math"
	"sort"
	"time"

	"cloudfog/internal/spatial"
	"cloudfog/internal/world"
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

// Plan is a geographic partition of the world into shard-owned regions: a
// kd-tree over avatar positions (balanced load), with every cut snapped to
// the cell geometry of a spatial index tuned for that many points, and
// leaves assigned to shards balancing total avatar load.
type Plan struct {
	regions []world.Region
	assign  []int // region index -> shard
}

// NewPlan partitions a width×height world carrying the given avatar
// positions into (at least) `shards` kd regions and assigns them to shards.
// Cuts snap to the uniform-grid cell geometry a spatial index holding all
// n = len(pts) points would use. That is a layout hint, not a coupling: the
// fog's live shortlist grid follows the count of supernodes that can take a
// player, retuning as the fog fills and drains, and neither ownership nor any
// shortlist ever depended on the two geometries agreeing.
func NewPlan(width, height float64, pts []world.Vec2, shards int) *Plan {
	if shards < 1 {
		shards = 1
	}
	depth := 0
	for 1<<depth < shards {
		depth++
	}
	cellW, cellH := spatial.CellGeometry(width, height, len(pts))
	bounds := world.Rect{Min: world.Vec2{X: 0, Y: 0}, Max: world.Vec2{X: width, Y: height}}
	regions := world.PartitionKDSnap(bounds, pts, depth, cellW, cellH)
	return &Plan{
		regions: regions,
		assign:  world.AssignRegions(regions, shards),
	}
}

// Owner returns the shard owning position (x, y). Regions tile the bounds
// half-open (max-exclusive), so points on the outer max edges fall back to
// a closed-bounds scan; points outside the bounds entirely are clamped.
// The answer is a pure function of the position and the plan.
func (p *Plan) Owner(x, y float64) int {
	pt := world.Vec2{X: x, Y: y}
	for i, r := range p.regions {
		if r.Bounds.Contains(pt) {
			return p.assign[i]
		}
	}
	for i, r := range p.regions {
		if pt.X >= r.Bounds.Min.X && pt.X <= r.Bounds.Max.X &&
			pt.Y >= r.Bounds.Min.Y && pt.Y <= r.Bounds.Max.Y {
			return p.assign[i]
		}
	}
	// Outside the bounds: clamp and retry closed.
	best, bestD := 0, math.Inf(1)
	for i, r := range p.regions {
		cx := clampF(pt.X, r.Bounds.Min.X, r.Bounds.Max.X)
		cy := clampF(pt.Y, r.Bounds.Min.Y, r.Bounds.Max.Y)
		d := (cx-pt.X)*(cx-pt.X) + (cy-pt.Y)*(cy-pt.Y)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return p.assign[best]
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MsgKind orders the cross-shard message kinds inside one timestamp: a kill
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

// Msg is one cross-shard event, exchanged at epoch barriers and applied to
// the control plane in canonical order. (Epoch, At, Kind, Node) is a unique
// key — the fault schedule never emits two identical ops for one node at
// one instant, and a node detects at most once per down-transition — so
// the canonical order is partition-invariant; (Shard, Seq) is only the
// total-order fallback and never actually decides.
type Msg struct {
	Epoch int
	At    time.Duration
	Kind  MsgKind
	Node  int64
	Shard int
	Seq   int64
}

// sortMsgs orders messages canonically: (Epoch, At, Kind, Node, Shard, Seq)
// — "(epoch, shard, seq) order, time-keyed within the epoch".
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
		case x.Node != y.Node:
			return x.Node < y.Node
		case x.Shard != y.Shard:
			return x.Shard < y.Shard
		}
		return x.Seq < y.Seq
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
