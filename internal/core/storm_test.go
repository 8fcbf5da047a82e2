package core

import (
	"fmt"
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
)

// stormInvariants checks the fog's structural invariants after each storm
// step: every online player is served, no player is served by a departed
// supernode, and no player's serving supernode also appears in its backup
// list; and the fog's online count is its member lists plus the unserved.
func stormInvariants(t *testing.T, f *Fog, players []*Player) {
	t.Helper()
	checkCensus(t, f, players)
	for _, p := range players {
		if !p.Online {
			if p.Attached.Served() {
				t.Fatalf("offline player %d still attached", p.ID)
			}
			continue
		}
		if !p.Attached.Served() {
			t.Fatalf("online player %d unserved after synchronous failover", p.ID)
		}
		if p.Attached.Kind() != AttachSupernode {
			continue
		}
		sn := p.Attached.SN
		live, ok := f.Supernode(sn.ID)
		if !ok || live != sn {
			t.Fatalf("player %d served by departed supernode %d", p.ID, sn.ID)
		}
		for _, b := range p.Backups {
			if b == sn {
				t.Fatalf("player %d's serving supernode %d sits in its own backup list", p.ID, sn.ID)
			}
		}
	}
}

// runStorm drives one fog through a randomized Register/Deregister/Join/
// Leave/RelieveOverloaded storm, checking the failover invariants, the index
// and registration-order invariants and Supernodes() against a plain
// reference slice after every step.
func runStorm(t *testing.T, seed int64, steps int, ladder bool) {
	cfg := testConfig()
	cfg.Latency = benignModel(cfg)
	if ladder {
		cfg.Overload = newLadder(t)
	}
	f := buildTestFog(t, cfg, 30)
	center := cfg.Region.Center()
	g := mustGame(t, 5)

	players := make([]*Player, 150)
	for i := range players {
		pos := geo.Point{X: center.X + float64(i%40), Y: center.Y + float64(i%25)}
		players[i] = testPlayer(int64(10_000+i), pos, g)
		f.Join(players[i])
	}

	// Immutable supernode specs for respawning after a kill.
	type spec struct {
		pos      geo.Point
		capacity int
		uplink   int64
	}
	specs := make(map[int64]spec)
	ids := make([]int64, 0, 30)
	for _, sn := range f.Supernodes() {
		specs[sn.ID] = spec{pos: sn.Pos, capacity: sn.Capacity, uplink: sn.Uplink}
		ids = append(ids, sn.ID)
	}
	order := append([]*Supernode(nil), f.Supernodes()...) // what Supernodes() must list

	rng := sim.NewRand(seed)
	for step := 0; step < steps; step++ {
		switch rng.Intn(5) {
		case 0: // kill a supernode and repair every orphan
			id := ids[rng.Intn(len(ids))]
			if _, up := f.Supernode(id); !up {
				continue
			}
			order = withoutID(order, id)
			for _, orphan := range f.FailSupernode(id) {
				f.Failover(orphan)
			}
		case 1: // respawn a downed supernode
			id := ids[rng.Intn(len(ids))]
			if _, up := f.Supernode(id); up {
				continue
			}
			sp := specs[id]
			fresh := NewSupernode(id, sp.pos, sp.capacity, sp.uplink)
			if err := f.RegisterSupernode(fresh); err != nil {
				t.Fatal(err)
			}
			order = append(order, fresh)
		case 2: // a player leaves
			p := players[rng.Intn(len(players))]
			if p.Online {
				f.Leave(p)
			}
		case 3: // a player (re)joins
			p := players[rng.Intn(len(players))]
			if !p.Online {
				f.Join(p)
			}
		case 4: // the relief tick (a no-op without a ladder)
			f.RelieveOverloaded()
		}
		stormInvariants(t, f, players)
		checkIndex(t, f)
		checkOrder(t, f, order)
	}
}

// TestRegisterDeregisterStorm hammers the fog with randomized supernode
// kills, re-registrations, and player churn, holding the failover
// invariants after every single step. Four storms run concurrently on
// independent fogs — the odd ones with the overload ladder on — so the race
// detector sweeps the shared read-only state (trace model, game ladder,
// region) while each fog mutates.
func TestRegisterDeregisterStorm(t *testing.T) {
	for i := 0; i < 4; i++ {
		seed, ladder := int64(9000+i*17), i%2 == 1
		t.Run(fmt.Sprintf("storm-%d", i), func(t *testing.T) {
			t.Parallel()
			runStorm(t, seed, 600, ladder)
		})
	}
}

// TestSupernodesAfterFleetWideFailure: a 20 000-node fog that fails and
// re-registers every node, twice over and out of registration order, with
// nobody reading the order in between — so gaps pile up until they outnumber
// the living, again and again — still lists exactly the reference, and never
// holds more than twice the fleet.
func TestSupernodesAfterFleetWideFailure(t *testing.T) {
	const fleet = 20_000
	cfg := testConfig()
	rng := sim.NewRand(4)
	placer := geo.DefaultUSPlacer()
	sns := make([]*Supernode, fleet)
	for i := range sns {
		sns[i] = NewSupernode(1_000_000+int64(i), placer.Place(rng), 2, 2*cfg.UplinkPerSlot)
	}
	dc := NewDatacenter(2_000_000, cfg.Region.Center(), cfg.DCEgress)
	f, err := BuildFog(cfg, []*Datacenter{dc}, sns, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	order := append([]*Supernode(nil), sns...)
	for round := 0; round < 2; round++ {
		for n, i := range rng.Perm(fleet) {
			old := sns[i]
			order = withoutID(order, old.ID)
			f.FailSupernode(old.ID)
			if n%3 != 0 || round == 1 { // some return at once, the rest below
				sns[i] = NewSupernode(old.ID, old.Pos, old.Capacity, old.Uplink)
				if err := f.RegisterSupernode(sns[i]); err != nil {
					t.Fatal(err)
				}
				order = append(order, sns[i])
			}
			if len(f.snOrder) > 2*len(f.sns)+1 {
				t.Fatalf("round %d: registration order holds %d entries for %d registered supernodes", round, len(f.snOrder), len(f.sns))
			}
		}
		checkIndex(t, f)
		for _, sn := range sns {
			if _, up := f.Supernode(sn.ID); !up {
				if err := f.RegisterSupernode(sn); err != nil {
					t.Fatal(err)
				}
				order = append(order, sn)
			}
		}
		checkIndex(t, f)
		checkOrder(t, f, order)
	}
}

// TestReindexIgnoresDepartedInstance: an occupancy change on a supernode
// instance that is no longer the one registered under its ID must not put
// the ID (back) into the index — the ID is gone, or belongs to a fresh
// machine that may itself be full.
func TestReindexIgnoresDepartedInstance(t *testing.T) {
	f := buildTestFog(t, testConfig(), 3)
	old := f.sns[1_000_000]
	f.FailSupernode(old.ID)
	f.observeOccupancy(old) // has free slots, but is not registered
	checkIndex(t, f)

	fresh := NewSupernode(old.ID, old.Pos, old.Capacity, old.Uplink)
	if err := f.RegisterSupernode(fresh); err != nil {
		t.Fatal(err)
	}
	pid := int64(1000)
	occupy(f, fresh, &pid) // the fresh machine fills up and leaves the index
	f.observeOccupancy(old)
	checkIndex(t, f)
}

// TestReliefIndexAndAccessFollowTheRegisteredInstance: everything the Fog keeps about
// a supernode per instance — its entries in both indexes, its resolved
// last-mile delay — goes with the instance that fails and is made again for
// the one that registers under the same ID, from that Fog's own latency source.
func TestReliefIndexAndAccessFollowTheRegisteredInstance(t *testing.T) {
	cfg := testConfig()
	cfg.Overload = newLadder(t)
	f := buildTestFog(t, cfg, 3)
	old := f.sns[1_000_000]
	want := cfg.Latency.(trace.Model).Access(trace.NodeID(old.ID), trace.ClassSupernode)
	if got := old.Endpoint().Access; got != want || got == 0 {
		t.Fatalf("registered supernode's endpoint carries access %v, the model says %v", got, want)
	}
	if !old.indexed || !old.roomy {
		t.Fatalf("empty registered supernode flagged indexed=%v roomy=%v", old.indexed, old.roomy)
	}

	f.FailSupernode(old.ID)
	if old.indexed || old.roomy {
		t.Fatalf("failed supernode still flagged indexed=%v roomy=%v", old.indexed, old.roomy)
	}
	checkIndex(t, f) // neither grid holds the ID any more

	fresh := NewSupernode(old.ID, old.Pos, old.Capacity, old.Uplink)
	if got := fresh.Endpoint().Access; got != 0 {
		t.Fatalf("supernode that never registered is resolved to %v", got)
	}
	if err := f.RegisterSupernode(fresh); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Endpoint().Access; got != want {
		t.Fatalf("re-registered supernode resolved to %v, want %v", got, want)
	}
	checkIndex(t, f)
	// The fresh machine fills to one short of full — in the shortlist index,
	// out of the relief index — and an occupancy change on the departed
	// instance, which has every slot free, must put the ID back in neither.
	pid := int64(1000)
	seat(f, fresh, fresh.Capacity-1, &pid)
	f.observeOccupancy(old)
	if !fresh.indexed || fresh.roomy || old.indexed || old.roomy {
		t.Fatalf("fresh instance indexed=%v roomy=%v, departed instance indexed=%v roomy=%v; want true false false false",
			fresh.indexed, fresh.roomy, old.indexed, old.roomy)
	}
	checkIndex(t, f)

	// Registered next with a fog whose source keeps no per-node terms, the
	// instance must not carry the old fog's term into the new one's probes.
	f.FailSupernode(fresh.ID)
	plain := testConfig()
	plain.Latency = byDistance{}
	f2 := buildTestFog(t, plain, 0)
	if err := f2.RegisterSupernode(fresh); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Endpoint().Access; got != 0 {
		t.Fatalf("supernode registered with a plain source still carries access %v", got)
	}
}
