package live

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
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

// until polls, under mu, for what another goroutine does on its own time.
func until(t *testing.T, mu *sync.Mutex, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		mu.Lock()
		ok := cond()
		mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// connectActing opens an action connection for player, sends one action
// stamped issued and returns once the cloud has ingested it. The cloud must
// tick only by hand: a tick ships, and so forgets, the stamp it waits for.
func connectActing(t *testing.T, cloud *Cloud, player int64, issued time.Duration) net.Conn {
	t.Helper()
	conn := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RolePlayerActions, ID: player}))
	readAck(t, conn)
	act := proto.Action{Player: player, Issued: issued, Act: world.Action{Player: player, Kind: world.ActionMove, Target: world.Vec2{X: 10, Y: 10}}}
	if err := proto.WriteFrame(conn, proto.TAction, proto.AppendAction(nil, act)); err != nil {
		t.Fatal(err)
	}
	until(t, &cloud.mu, "the action is ingested", func() bool { return cloud.stamps[player] == issued })
	return conn
}

// TestCloudForgetsDepartedPlayers: what the cloud holds for a player lasts as
// long as the player's action connections do. Connect/act/disconnect cycles
// leave no stamp, no connection count and no avatar behind, a subscriber's
// replica sees the avatar come and — through the delta's Removed list — go,
// and of two connections for one player only the last to close despawns it.
func TestCloudForgetsDepartedPlayers(t *testing.T) {
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sub := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: 7}))
	defer sub.Close()
	replica := world.NewReplica()
	recvDelta := func() {
		t.Helper()
		for {
			typ, payload, err := proto.ReadFrame(sub)
			if err != nil {
				t.Fatal(err)
			}
			if typ != proto.TDelta {
				continue // the action stamps that precede a tick's delta
			}
			d, err := proto.UnmarshalDelta(payload)
			if err == nil {
				err = replica.Apply(d)
			}
			if err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	recvDelta() // the subscription snapshot
	tick := func() {
		t.Helper()
		cloud.tickOnce()
		recvDelta()
	}
	gone := func(player int64) func() bool {
		return func() bool { return cloud.acting[player] == 0 }
	}

	for cycle := 1; cycle <= 5; cycle++ {
		player := int64(100 + cycle%2) // two players, each one back again
		conn := connectActing(t, cloud, player, time.Duration(cycle))
		tick()
		if _, ok := replica.Avatar(player); !ok {
			t.Fatalf("cycle %d: the subscriber never saw player %d's avatar", cycle, player)
		}
		conn.Close()
		until(t, &cloud.mu, "the connection is forgotten", gone(player))
		tick()
		if _, ok := replica.Avatar(player); ok {
			t.Fatalf("cycle %d: player %d left and its avatar is still in the subscriber's replica", cycle, player)
		}
	}

	first, second := connectActing(t, cloud, 9, 1), connectActing(t, cloud, 9, 2)
	first.Close()
	until(t, &cloud.mu, "the first of two connections is forgotten", func() bool { return cloud.acting[9] == 1 })
	tick()
	if _, ok := replica.Avatar(9); !ok {
		t.Fatal("a player with a connection still open lost its avatar")
	}
	second.Close()
	until(t, &cloud.mu, "the last connection is forgotten", gone(9))
	tick()

	cloud.mu.Lock()
	defer cloud.mu.Unlock()
	if len(cloud.stamps)+len(cloud.acting) != 0 {
		t.Errorf("after every player left: stamps %v, acting %v; want both empty", cloud.stamps, cloud.acting)
	}
	for _, player := range []int64{100, 101, 9} {
		if cloud.w.Avatar(player) != nil {
			t.Errorf("player %d left and still has an avatar", player)
		}
	}
	if replica.Len() != 0 {
		t.Errorf("the subscriber's replica holds %d entities of an empty world", replica.Len())
	}
}

// TestSupernodeForgetsDepartedStamps: a supernode keeps a relayed action stamp
// as long as the replica holds the player's avatar. Connect/act/disconnect
// cycles against a cloud leave no stamp behind once the delta that removes the
// avatar has arrived, a player still connected keeps its own, and a snapshot
// drops the stamps of players it does not list.
func TestSupernodeForgetsDepartedStamps(t *testing.T) {
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 7, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	until(t, &cloud.mu, "the supernode is subscribed", func() bool { return len(cloud.subs) == 1 })

	stays := connectActing(t, cloud, 50, 99)
	defer stays.Close()
	for cycle := 1; cycle <= 5; cycle++ {
		player, issued := int64(100+cycle), time.Duration(cycle)
		conn := connectActing(t, cloud, player, issued)
		cloud.tickOnce()
		until(t, &sn.mu, "the stamp and the avatar reach the supernode", func() bool {
			_, ok := sn.replica.Avatar(player)
			return ok && sn.stamps[player] == issued
		})
		conn.Close()
		until(t, &cloud.mu, "the connection is forgotten", func() bool { return cloud.acting[player] == 0 })
		cloud.tickOnce()
		until(t, &sn.mu, "the removal reaches the supernode", func() bool {
			_, ok := sn.replica.Avatar(player)
			return !ok
		})
	}
	sn.mu.Lock()
	if len(sn.stamps) != 1 || sn.stamps[50] != 99 {
		t.Errorf("after five players came and went beside one that stayed: stamps %v, want map[50:99ns]", sn.stamps)
	}
	sn.mu.Unlock()
}

// TestSupernodeSnapshotDropsStaleStamps: a full delta replaces the replica, so
// a stamp whose player the snapshot does not list goes with it.
func TestSupernodeSnapshotDropsStaleStamps(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 7, CloudAddr: ln.Addr().String(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for player := int64(1); player <= 2; player++ {
		stamp := proto.AppendAction(nil, proto.Action{Player: player, Issued: time.Duration(player)})
		if err := proto.WriteFrame(conn, proto.TAction, stamp); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := world.Delta{ToVersion: 3, Full: true, Updated: []world.Entity{{ID: 1, Kind: world.KindAvatar, Owner: 1}}}
	if err := proto.WriteFrame(conn, proto.TDelta, proto.AppendDelta(nil, snapshot)); err != nil {
		t.Fatal(err)
	}
	until(t, &sn.mu, "the supernode has applied the snapshot", func() bool { return sn.replica.Version() == 3 })
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if stamps := fmt.Sprint(sn.stamps); stamps != "map[1:1ns]" {
		t.Fatalf("after a snapshot listing player 1 alone: stamps %s", stamps)
	}
}

// subscriber is a test's end of an update subscription: a raw connection that
// said hello as supernode id, and the replica its deltas are applied to.
type subscriber struct {
	conn    net.Conn
	replica *world.Replica
}

func subscribeAs(t *testing.T, cloud *Cloud, id int64) *subscriber {
	t.Helper()
	s := &subscriber{
		conn:    dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: id})),
		replica: world.NewReplica(),
	}
	s.nextDelta(t) // the subscription snapshot
	return s
}

// nextDelta reads up to the next delta, applies it, and returns it with the
// payload bytes it travelled as.
func (s *subscriber) nextDelta(t *testing.T) (world.Delta, []byte) {
	t.Helper()
	for {
		typ, payload, err := proto.ReadFrame(s.conn)
		if err != nil {
			t.Fatalf("expected a delta: %v", err)
		}
		if typ != proto.TDelta {
			continue // the action stamps that precede a tick's delta
		}
		d, err := proto.UnmarshalDelta(payload)
		if err == nil {
			err = s.replica.Apply(d)
		}
		if err != nil {
			t.Fatal(err)
		}
		return d, payload
	}
}

// movingWorld gives the cloud avatars and returns a tick that sends every one
// of them off to the far corner from where the last tick left it, so every
// delta carries them all (in the payload, in a map's order).
func movingWorld(t *testing.T, cloud *Cloud, avatars int) (tick func()) {
	t.Helper()
	cloud.World(func(w *world.World) {
		for p := int64(1); p <= int64(avatars); p++ {
			if _, err := w.SpawnAvatar(p, world.Vec2{X: float64(100 * p), Y: 500}); err != nil {
				t.Fatal(err)
			}
		}
	})
	return func() {
		cloud.World(func(w *world.World) {
			corner := w.Bounds().Max
			if w.Avatar(1).Pos == corner {
				corner = w.Bounds().Min
			}
			acts := make([]world.Action, avatars)
			for i := range acts {
				acts[i] = world.Action{Player: int64(i + 1), Kind: world.ActionMove, Target: corner}
			}
			w.Apply(acts)
		})
		cloud.tickOnce()
	}
}

// TestCloudResubscribeReplacesLink: a supernode that subscribes again under
// its ID on a new connection takes the subscription over. The cloud closes the
// link it replaces — the first connection reads EOF — the second keeps
// receiving deltas at consecutive versions, and Close returns promptly with
// both peers still connected, instead of waiting on a goroutine parked in the
// replaced link's Recv until the peer hangs up.
func TestCloudResubscribeReplacesLink(t *testing.T) {
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	tick := movingWorld(t, cloud, 3)

	first := subscribeAs(t, cloud, 7)
	defer first.conn.Close()
	second := subscribeAs(t, cloud, 7)
	defer second.conn.Close()

	first.conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if typ, _, err := proto.ReadFrame(first.conn); err != io.EOF {
		t.Fatalf("the replaced connection read frame type %v, error %v; want EOF", typ, err)
	}
	at := second.replica.Version()
	for i := 0; i < 3; i++ {
		tick()
		d, _ := second.nextDelta(t)
		if d.Full || d.FromVersion != at || d.ToVersion <= at {
			t.Fatalf("tick %d: delta %d→%d (full=%v) does not continue from version %d", i, d.FromVersion, d.ToVersion, d.Full, at)
		}
		at = d.ToVersion
	}
	cloud.mu.Lock()
	subs := len(cloud.subs)
	cloud.mu.Unlock()
	if subs != 1 {
		t.Fatalf("%d subscriptions after a re-subscribe, want 1", subs)
	}

	closed := make(chan struct{})
	go func() {
		cloud.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close has not returned after a second with both peers still connected")
	}
}

// TestTickEncodesDeltaOncePerVersion: subscriptions at one version are sent
// one encoding of the tick's delta — the same bytes, where a DeltaSince per
// subscription lists the changed entities in a map's order each time — and one
// that missed a delta is brought up from its own version on the next tick
// while the others carry on from theirs.
func TestTickEncodesDeltaOncePerVersion(t *testing.T) {
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	tick := movingWorld(t, cloud, 8)

	subs := make([]*subscriber, 4)
	for i := range subs {
		subs[i] = subscribeAs(t, cloud, int64(i+1))
		defer subs[i].conn.Close()
	}
	sameBytes := func(what string, among []*subscriber) world.Delta {
		t.Helper()
		d0, p0 := among[0].nextDelta(t)
		for _, s := range among[1:] {
			if _, p := s.nextDelta(t); !bytes.Equal(p, p0) {
				t.Fatalf("%s: two subscriptions at one version were sent different delta bytes", what)
			}
		}
		if len(d0.Updated) < 8 {
			t.Fatalf("%s: delta updates %d entities, want all 8 movers", what, len(d0.Updated))
		}
		return d0
	}
	tick()
	sameBytes("steady state", subs)

	// The loss accumulator claims every second frame on the laggard's link:
	// this tick's delta passes, the next one's is refused.
	cloud.mu.Lock()
	laggard, rest := subs[2], []*subscriber{subs[0], subs[1], subs[3]}
	lagLink := cloud.subs[3].link
	cloud.mu.Unlock()
	lagLink.Impair(0, 0.5)
	tick()
	held := sameBytes("before the loss", subs).ToVersion
	tick()
	sameBytes("during the loss", rest)
	lagLink.Impair(0, 0)

	tick()
	ahead := sameBytes("after the loss", rest)
	behind, _ := laggard.nextDelta(t)
	if behind.FromVersion != held || behind.ToVersion != ahead.ToVersion || ahead.FromVersion <= held {
		t.Fatalf("after a missed delta the laggard was sent %d→%d and the others %d→%d; it held version %d",
			behind.FromVersion, behind.ToVersion, ahead.FromVersion, ahead.ToVersion, held)
	}
	cloud.World(func(w *world.World) {
		for i, s := range subs {
			if s.replica.Version() != w.Version() {
				t.Errorf("subscriber %d's replica at version %d, world at %d", i+1, s.replica.Version(), w.Version())
			}
			for p := int64(1); p <= 8; p++ {
				if got, _ := s.replica.Avatar(p); got.Pos != w.Avatar(p).Pos {
					t.Errorf("subscriber %d holds avatar %d at %+v, the world has it at %+v", i+1, p, got.Pos, w.Avatar(p).Pos)
				}
			}
		}
	})
}
