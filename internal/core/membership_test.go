package core

import (
	"testing"

	"cloudfog/internal/geo"
)

// TestMembershipSwapRemove pins what a supernode's member list promises where
// a map promised it for free: removing any member — first, middle, last, only
// — leaves exactly the others in attach order, which relief evicts by, each
// still findable at its recorded slot; removing a player some other list
// holds, or none does, changes nothing; and a failed supernode's members go to
// the caller, not to whoever registers under its ID next.
func TestMembershipSwapRemove(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 3)
	sns := f.Supernodes()
	a, b := sns[0], sns[1]
	pid := int64(1000)

	// inOrder reports whether list holds exactly want, in that order, each
	// member at the slot its player records.
	inOrder := func(list members, want ...*Player) bool {
		if len(list) != len(want) {
			return false
		}
		for i, m := range list {
			if m.p != want[i] || int(m.p.slot) != i {
				return false
			}
		}
		return true
	}

	seat(f, a, 5, &pid)
	leave := func(what string, gone *Player) {
		t.Helper()
		var left []*Player
		for _, m := range a.players {
			if m.p != gone {
				left = append(left, m.p)
			}
		}
		f.Leave(gone)
		if !inOrder(a.players, left...) || gone.Attached.Served() {
			t.Fatalf("after the %s member left: list %v, want %v in attach order, each at its slot", what, ids(listed(a.players)), ids(left))
		}
		checkIndex(t, f)
	}
	leave("first of five", a.players[0].p)
	leave("middle of four", a.players[1].p)
	leave("last of three", a.players[2].p)
	leave("first of two", a.players[0].p)
	only := a.players[0].p
	leave("only", only)
	if a.Load() != 0 || f.OnlinePlayers() != 0 {
		t.Fatalf("after the only member left: load %d, %d online", a.Load(), f.OnlinePlayers())
	}
	// A second removal of someone already gone, from an empty list and from one
	// that has since put another player at that slot.
	a.players.remove(only)
	onA := seat(f, a, 2, &pid)
	a.players.remove(only)
	if !inOrder(a.players, onA...) {
		t.Fatalf("removing a departed player disturbed the list: %v", ids(listed(a.players)))
	}

	// A player on another node's list, at a slot this list fills too, and one
	// the cloud streams to, on no list at all.
	onB := seat(f, b, 2, &pid)
	far := testPlayer(1, geo.Point{}, mustGame(t, 1)) // no supernode meets game 1 from the corner
	if f.Join(far).Kind() != AttachCloud {
		t.Fatalf("remote strict-latency player attached %+v, want the datacenter", far.Attached)
	}
	a.players.remove(onB[0])
	a.players.remove(far)
	if !inOrder(a.players, onA...) || !inOrder(b.players, onB...) {
		t.Fatalf("removing another node's player changed a list: a %v, b %v", ids(listed(a.players)), ids(listed(b.players)))
	}
	checkIndex(t, f)
	checkCensus(t, f, append(append([]*Player{far}, onA...), onB...))

	// A crash hands the members over and keeps none; an orphan that leaves
	// before anyone repairs it touches no list; the ID's next holder starts
	// empty and a late removal through the departed instance finds nobody.
	orphans := f.FailSupernode(b.ID)
	if len(orphans) != 2 || orphans[0] != onB[0] || orphans[1] != onB[1] || b.Load() != 0 {
		t.Fatalf("FailSupernode returned %v and left load %d, want players %v and 0", ids(orphans), b.Load(), ids(onB))
	}
	fresh := NewSupernode(b.ID, b.Pos, b.Capacity, b.Uplink)
	if err := f.RegisterSupernode(fresh); err != nil {
		t.Fatal(err)
	}
	newcomer := seat(f, fresh, 1, &pid)
	f.Leave(onB[0])
	b.players.remove(onB[1])
	fresh.players.remove(onB[1]) // slot 1 on the old instance, past the end here
	if fresh.Load() != 1 || !inOrder(fresh.players, newcomer...) || !inOrder(a.players, onA...) {
		t.Fatalf("the re-registered supernode lists %v, want only its own newcomer", ids(listed(fresh.players)))
	}
	if !f.Failover(onB[1]) || !onB[1].Attached.Served() {
		t.Fatalf("orphan not repaired: %+v", onB[1].Attached)
	}
	checkIndex(t, f)
	everyone := append(append([]*Player{far, onB[0], onB[1]}, onA...), newcomer...)
	checkCensus(t, f, everyone)
	checkLedgers(t, f, everyone)
}

// listed returns the players of a member list, in its order.
func listed(list members) []*Player {
	out := make([]*Player, len(list))
	for i, m := range list {
		out[i] = m.p
	}
	return out
}

func ids(ps []*Player) []int64 {
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = int64(p.ID)
	}
	return out
}

// TestWarmJoinAllocatesOnlyBackups: on a fog whose lists, grids and scratch
// have grown to their working size, a join allocates its backup ring and
// nothing else — no boxed latency model or closure per probe, no map bucket
// per membership change — and a leave allocates nothing. With and without the
// ladder, through the bound Model (cfg.Latency is a trace.Model by value).
func TestWarmJoinAllocatesOnlyBackups(t *testing.T) {
	for _, ladder := range []bool{false, true} {
		cfg := testConfig()
		cfg.Latency = benignModel(cfg)
		if ladder {
			cfg.Overload = newLadder(t)
		}
		f := buildTestFog(t, cfg, 40)
		center := cfg.Region.Center()
		players := make([]*Player, 120)
		for i := range players {
			pos := geo.Point{X: center.X + float64(i%40)*15, Y: center.Y + float64(i%7)}
			players[i] = testPlayer(int64(i+1), pos, mustGame(t, 5))
		}
		backups := 0 // joins of one cycle that record a backup ring
		cycle := func() {
			backups = 0
			for _, p := range players {
				f.Join(p)
				if len(ringOf(p)) > 0 {
					backups++
				}
			}
			for _, p := range players {
				f.Leave(p)
			}
		}
		cycle()
		cycle()
		if backups == 0 {
			t.Fatalf("ladder=%v: no join recorded a backup ring; the case allocates nothing to bound", ladder)
		}
		if got := testing.AllocsPerRun(20, cycle); got > float64(backups) {
			t.Fatalf("ladder=%v: %d warm joins and leaves allocate %.0f times, want one per backup ring (%d)",
				ladder, len(players), got, backups)
		}
		checkIndex(t, f)
	}
}
