package core

import (
	"fmt"
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

// stormInvariants checks the fog's structural invariants after each storm
// step: every online player is served, no player is served by a departed
// supernode, and no player's serving supernode also appears in its backup
// list.
func stormInvariants(t *testing.T, f *Fog, players []*Player) {
	t.Helper()
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
		if p.Attached.Kind != AttachSupernode {
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
// Leave/RelieveOverloaded storm, checking the failover invariants
// and the shortlist index invariant after every step.
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

	rng := sim.NewRand(seed)
	for step := 0; step < steps; step++ {
		switch rng.Intn(5) {
		case 0: // kill a supernode and repair every orphan
			id := ids[rng.Intn(len(ids))]
			if _, up := f.Supernode(id); !up {
				continue
			}
			for _, orphan := range f.FailSupernode(id) {
				f.Failover(orphan)
			}
		case 1: // respawn a downed supernode
			id := ids[rng.Intn(len(ids))]
			if _, up := f.Supernode(id); up {
				continue
			}
			sp := specs[id]
			if err := f.RegisterSupernode(NewSupernode(id, sp.pos, sp.capacity, sp.uplink)); err != nil {
				t.Fatal(err)
			}
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
