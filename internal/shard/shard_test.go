package shard

import (
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/fault"
)

// TestClockReadsTheRunnersEngine: a zero Clock reads 0 — the fog is built and
// joined against it before any runner exists — and, once NewRunner has bound
// it, the engine's time.
func TestClockReadsTheRunnersEngine(t *testing.T) {
	clk := &Clock{}
	now := clk.Now // taken before the runner exists, as the fog takes it
	if now() != 0 {
		t.Fatalf("unbound clock reads %v", now())
	}
	r := NewRunner(Config{Horizon: 10 * time.Second}, nil, nil, nil, nil, clk)
	r.engine.RunUntil(7 * time.Second)
	if now() != 7*time.Second {
		t.Fatalf("bound clock reads %v with the engine at %v", now(), r.engine.Now())
	}
}

// TestKillsUntilReadsOneEpochAhead: the read-ahead returns exactly the kills
// in (previous t1, t1] — a kill at t1 itself belongs to the epoch it ends, and
// recoveries and wire ops are passed over — and leaves the cursor on the
// first later event. A node killed, recovered and killed again inside one
// epoch is reported at its first death: its t0 players were orphaned then.
func TestKillsUntilReadsOneEpochAhead(t *testing.T) {
	s := time.Second
	sched := &fault.Schedule{Events: []fault.Event{
		{At: 3 * s, Op: fault.OpKill, Node: 7, D: s},
		{At: 4 * s, Op: fault.OpLinkBad},
		{At: 5 * s, Op: fault.OpRecover, Node: 7},
		{At: 8 * s, Op: fault.OpKill, Node: 7, D: s},
		{At: 10 * s, Op: fault.OpKill, Node: 9, D: s},
		{At: 10*s + 1, Op: fault.OpKill, Node: 11, D: s},
		{At: 25 * s, Op: fault.OpKill, Node: 9, D: s},
	}}
	r := &Runner{sched: sched}
	for _, c := range []struct {
		t1     time.Duration
		want   map[int64]time.Duration
		cursor int
	}{
		{10 * s, map[int64]time.Duration{7: 3 * s, 9: 10 * s}, 5},
		{20 * s, map[int64]time.Duration{11: 10*s + 1}, 6},
		{30 * s, map[int64]time.Duration{9: 25 * s}, 7},
		{40 * s, map[int64]time.Duration{}, 7},
	} {
		if got := r.killsUntil(c.t1); !reflect.DeepEqual(got, c.want) || r.nextEvent != c.cursor {
			t.Fatalf("killsUntil(%v) = %v, cursor %d; want %v, cursor %d", c.t1, got, r.nextEvent, c.want, c.cursor)
		}
	}
	if got := (&Runner{}).killsUntil(10 * s); len(got) != 0 {
		t.Fatalf("a fault-free run reads kills ahead: %v", got)
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
