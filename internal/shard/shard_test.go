package shard

import (
	"math/rand"
	"testing"
	"time"

	"cloudfog/internal/world"
)

func testPoints(n int, seed int64) []world.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]world.Vec2, n)
	for i := range pts {
		pts[i] = world.Vec2{X: rng.Float64() * 4500, Y: rng.Float64() * 2900}
	}
	return pts
}

// TestPlanOwnerTotal: every position — interior, outer max edges, and
// out-of-bounds — resolves to a valid shard, and repeated lookups agree.
func TestPlanOwnerTotal(t *testing.T) {
	pts := testPoints(500, 1)
	for _, shards := range []int{1, 2, 4, 8} {
		p := NewPlan(4500, 2900, pts, shards)
		probe := append(testPoints(200, 2),
			world.Vec2{X: 4500, Y: 2900}, // outer max corner (half-open miss)
			world.Vec2{X: 0, Y: 0},
			world.Vec2{X: -50, Y: 1000},  // out of bounds
			world.Vec2{X: 5000, Y: 3000}, // out of bounds
		)
		for _, pt := range probe {
			o := p.Owner(pt.X, pt.Y)
			if o < 0 || o >= shards {
				t.Fatalf("shards=%d: Owner(%v) = %d out of range", shards, pt, o)
			}
			if o2 := p.Owner(pt.X, pt.Y); o2 != o {
				t.Fatalf("Owner not stable: %d then %d", o, o2)
			}
		}
		// At shards > 1 the partition must actually split the load.
		if shards > 1 {
			seen := map[int]bool{}
			for _, pt := range pts {
				seen[p.Owner(pt.X, pt.Y)] = true
			}
			if len(seen) < 2 {
				t.Fatalf("shards=%d: all %d points landed on one shard", shards, len(pts))
			}
		}
	}
}

// TestSortMsgsCanonical: the merge order is (Epoch, At, Kind, Node, Shard,
// Seq) regardless of arrival order — the partition-invariance keystone.
func TestSortMsgsCanonical(t *testing.T) {
	ms := []Msg{
		{Epoch: 1, At: time.Second, Kind: MsgDetect, Node: 5, Shard: 0, Seq: 3},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 9, Shard: 2, Seq: 0},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 4, Shard: 1, Seq: 7},
		{Epoch: 0, At: time.Second, Kind: MsgRecover, Node: 4, Shard: 3, Seq: 1},
		{Epoch: 0, At: time.Second, Kind: MsgKill, Node: 4, Shard: 0, Seq: 2},
	}
	sortMsgs(ms)
	want := []struct {
		epoch int
		node  int64
		kind  MsgKind
	}{
		{0, 4, MsgKill}, {0, 4, MsgRecover}, {0, 4, MsgKill}, {0, 9, MsgKill}, {1, 5, MsgDetect},
	}
	for i, w := range want {
		if ms[i].Epoch != w.epoch || ms[i].Node != w.node || ms[i].Kind != w.kind {
			t.Fatalf("position %d: got %+v, want epoch=%d node=%d kind=%d", i, ms[i], w.epoch, w.node, w.kind)
		}
	}
}

// TestClockMonotonic: the barrier clock never moves backward, even when
// messages arrive time-keyed before the current epoch end.
func TestClockMonotonic(t *testing.T) {
	c := &Clock{}
	c.advance(5 * time.Second)
	c.advance(3 * time.Second)
	if c.Now() != 5*time.Second {
		t.Fatalf("clock went backward: %v", c.Now())
	}
	c.advance(7 * time.Second)
	if c.Now() != 7*time.Second {
		t.Fatalf("clock stuck: %v", c.Now())
	}
}

// TestHash64Deterministic: the oracle-delay hash is a pure function and
// spreads inputs (no two small inputs collide in a modest probe).
func TestHash64Deterministic(t *testing.T) {
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 10_000; i++ {
		h := hash64(i)
		if h != hash64(i) {
			t.Fatal("hash64 not deterministic")
		}
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash64 collision: %d and %d", prev, i)
		}
		seen[h] = i
	}
}
