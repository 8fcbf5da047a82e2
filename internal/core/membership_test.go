package core

import (
	"slices"
	"testing"

	"cloudfog/internal/geo"
)

// TestMembershipSwapRemove pins what the member lists promise where a map
// promised it for free: removing any member — first, middle, last, only —
// leaves exactly the others, each still findable at its recorded slot, and on
// a supernode's list still in attach order, which relief evicts by; removing
// a player some other list holds, or none does, changes nothing; and a failed
// supernode's members go to the caller, not to whoever registers under its ID
// next.
func TestMembershipSwapRemove(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 3)
	sns := f.Supernodes()
	a, b := sns[0], sns[1]
	pid := int64(1000)

	holds := func(list members, want ...*Player) bool {
		if len(list) != len(want) {
			return false
		}
		left := make(map[*Player]bool, len(want))
		for _, p := range want {
			left[p] = true
		}
		for i, p := range list {
			if !left[p] || int(p.slot) != i {
				return false
			}
			delete(left, p)
		}
		return true
	}
	// inOrder is holds plus order, for a supernode's list, which keeps attach
	// order.
	inOrder := func(list members, want ...*Player) bool {
		return holds(list, want...) && slices.Equal([]*Player(list), want)
	}

	seat(f, a, 5, &pid)
	leave := func(what string, gone *Player) {
		t.Helper()
		var left []*Player
		for _, p := range a.players {
			if p != gone {
				left = append(left, p)
			}
		}
		f.Leave(gone)
		if !inOrder(a.players, left...) || gone.Attached.Served() {
			t.Fatalf("after the %s member left: list %v, want %v in attach order, each at its slot", what, ids(a.players), ids(left))
		}
		checkIndex(t, f)
	}
	leave("first of five", a.players[0])
	leave("middle of four", a.players[1])
	leave("last of three", a.players[2])
	leave("first of two", a.players[0])
	only := a.players[0]
	leave("only", only)
	if a.Load() != 0 || f.OnlinePlayers() != 0 {
		t.Fatalf("after the only member left: load %d, %d online", a.Load(), f.OnlinePlayers())
	}
	// A second removal of someone already gone, from an empty list and from one
	// that has since put another player at that slot.
	a.players.removeOrdered(only)
	onA := seat(f, a, 2, &pid)
	a.players.removeOrdered(only)
	if !inOrder(a.players, onA...) {
		t.Fatalf("removing a departed player disturbed the list: %v", ids(a.players))
	}

	// A player on another node's list, at a slot this list fills too.
	onB := seat(f, b, 2, &pid)
	dc := f.dcs[0]
	far := testPlayer(1, geo.Point{}, mustGame(t, 1)) // no supernode meets game 1 from the corner
	f.Join(far)
	if far.Attached.Kind() != AttachCloud || !holds(dc.direct, far) {
		t.Fatalf("remote strict-latency player attached %+v, want the datacenter's only direct player", far.Attached)
	}
	a.players.removeOrdered(onB[0])
	a.players.removeOrdered(far)
	dc.RemoveDirect(onA[0])
	other := NewDatacenter(2_000_001, dc.Pos, dc.Egress)
	other.RemoveDirect(far)
	if !inOrder(a.players, onA...) || !inOrder(b.players, onB...) || !holds(dc.direct, far) || other.DirectPlayers() != 0 {
		t.Fatalf("removing another node's player changed a list: a %v, b %v, datacenter %v",
			ids(a.players), ids(b.players), ids(dc.direct))
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
	b.players.removeOrdered(onB[1])
	fresh.players.removeOrdered(onB[1]) // slot 1 on the old instance, past the end here
	if fresh.Load() != 1 || !inOrder(fresh.players, newcomer...) || !inOrder(a.players, onA...) {
		t.Fatalf("the re-registered supernode lists %v, want only its own newcomer", ids(fresh.players))
	}
	if !f.Failover(onB[1]) || !onB[1].Attached.Served() {
		t.Fatalf("orphan not repaired: %+v", onB[1].Attached)
	}
	checkIndex(t, f)
	checkCensus(t, f, append(append([]*Player{far, onB[1]}, onA...), newcomer...))
}

func ids(ps []*Player) []int64 {
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	return out
}

// TestWarmJoinAllocatesOnlyBackups: on a fog whose lists, grids and scratch
// have grown to their working size, a join allocates its backup list and
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
		backups := 0 // joins of one cycle that record a backup list
		cycle := func() {
			backups = 0
			for _, p := range players {
				f.Join(p)
				if len(p.Backups) > 0 {
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
			t.Fatalf("ladder=%v: no join recorded a backup list; the case allocates nothing to bound", ladder)
		}
		if got := testing.AllocsPerRun(20, cycle); got > float64(backups) {
			t.Fatalf("ladder=%v: %d warm joins and leaves allocate %.0f times, want one per backup list (%d)",
				ladder, len(players), got, backups)
		}
		checkIndex(t, f)
	}
}
