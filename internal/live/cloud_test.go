package live

import (
	"testing"
	"time"

	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// TestReplicaConvergesAfterRefusedDelta drives the cloud's tick by hand
// against a subscription whose link refuses every second delta (the loss
// process here; a full send queue takes the same path — Send reports false).
// The cloud must not count a refused delta as delivered: the next delta has
// to continue from the version the replica actually holds.
func TestReplicaConvergesAfterRefusedDelta(t *testing.T) {
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	cloud.World(func(w *world.World) {
		for i := 0; i < 5; i++ {
			w.SpawnObject(world.Vec2{X: float64(100 * i), Y: 50})
		}
		if _, err := w.SpawnAvatar(1, world.Vec2{X: 500, Y: 500}); err != nil {
			t.Fatal(err)
		}
		// A moving avatar: every tick's delta carries a change.
		w.Apply([]world.Action{{Player: 1, Kind: world.ActionMove, Target: world.Vec2{X: 9000, Y: 9000}}})
	})

	const snID = 7
	conn := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: snID}))
	defer conn.Close()
	replica := world.NewReplica()
	gaps := 0
	recvDelta := func() {
		t.Helper()
		typ, payload, err := proto.ReadFrame(conn)
		if err != nil || typ != proto.TDelta {
			t.Fatalf("expected a delta, got frame type %v, error %v", typ, err)
		}
		d, err := proto.UnmarshalDelta(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Apply(d); err != nil {
			gaps++
			t.Logf("delta not applied: %v", err)
		}
	}
	recvDelta() // the subscription snapshot, sent before the sub is registered

	// The snapshot is sent and the sub registered under one hold of c.mu.
	cloud.mu.Lock()
	sub := cloud.subs[snID]
	cloud.mu.Unlock()
	if sub == nil {
		t.Fatal("subscription not registered after its snapshot arrived")
	}
	sub.link.Impair(0, 0.5) // the loss accumulator claims every second frame

	const ticks = 6
	for i := 0; i < ticks; i++ {
		cloud.tickOnce()
		if i%2 == 0 {
			recvDelta() // odd ticks' deltas are refused and never arrive
		}
	}
	sub.link.Impair(0, 0)
	cloud.tickOnce()
	recvDelta()

	if gaps != 0 {
		t.Errorf("%d deltas did not continue from the replica's version", gaps)
	}
	cloud.World(func(w *world.World) {
		if replica.Version() != w.Version() {
			t.Errorf("replica at version %d, world at %d", replica.Version(), w.Version())
		}
		want, _ := replica.Avatar(1)
		if av := w.Avatar(1); av == nil || av.Pos != want.Pos {
			t.Errorf("replica holds the avatar at %+v, the world has %+v", want.Pos, av)
		}
	})
}
