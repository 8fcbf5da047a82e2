package shard

import (
	"testing"
	"time"
)

// TestSortMsgsCanonical: the merge order is (Epoch, At, Kind, Node)
// regardless of arrival order — the keystone of worker-count invariance.
func TestSortMsgsCanonical(t *testing.T) {
	ms := []Msg{
		{Epoch: 1, At: time.Second, Kind: MsgDetect, Node: 5},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 9},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 4},
		{Epoch: 0, At: time.Second, Kind: MsgRecover, Node: 4},
		{Epoch: 0, At: time.Second, Kind: MsgKill, Node: 4},
	}
	sortMsgs(ms)
	want := []Msg{
		{Epoch: 0, At: time.Second, Kind: MsgKill, Node: 4},
		{Epoch: 0, At: time.Second, Kind: MsgRecover, Node: 4},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 4},
		{Epoch: 0, At: 2 * time.Second, Kind: MsgKill, Node: 9},
		{Epoch: 1, At: time.Second, Kind: MsgDetect, Node: 5},
	}
	for i, w := range want {
		if ms[i] != w {
			t.Fatalf("position %d: got %+v, want %+v", i, ms[i], w)
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
