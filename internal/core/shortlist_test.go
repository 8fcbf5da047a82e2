package core

import (
	"fmt"
	"sort"
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
)

// shortlistReference is the pre-index shortlist kept as the oracle: a full
// scan over the geolocated supernode table — capacity, the ladder's Admit
// and the blacklist checked per node, per query — plus a sort. Ties break on
// supernode ID, matching the spatial index's determinism contract.
func shortlistReference(f *Fog, x, y float64, k int) []*Supernode {
	type entry struct {
		sn *Supernode
		d  float64
	}
	entries := make([]entry, 0, len(f.snOrder))
	for _, sn := range f.snOrder {
		if sn.Available() <= 0 {
			continue
		}
		if f.cfg.Overload != nil && !f.cfg.Overload.Admit(sn.ID) {
			continue
		}
		if f.cfg.Exclude != nil && f.cfg.Exclude(sn.ID) {
			continue
		}
		est := f.snEstPos[sn.ID]
		entries = append(entries, entry{sn, dist2(x, y, est.x, est.y)})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].d != entries[j].d {
			return entries[i].d < entries[j].d
		}
		return entries[i].sn.ID < entries[j].sn.ID
	})
	if len(entries) > k {
		entries = entries[:k]
	}
	out := make([]*Supernode, len(entries))
	for i, e := range entries {
		out[i] = e.sn
	}
	return out
}

// buildRandomFog assembles a fog with S supernodes at clustered positions;
// a slice of duplicated positions forces exact distance ties.
func buildRandomFog(t testing.TB, cfg Config, s int, rng *sim.Rand) *Fog {
	t.Helper()
	placer := geo.DefaultUSPlacer()
	center := cfg.Region.Center()
	dcs := []*Datacenter{
		NewDatacenter(2_000_000, geo.Point{X: center.X - 800, Y: center.Y}, cfg.DCEgress),
		NewDatacenter(2_000_001, geo.Point{X: center.X + 800, Y: center.Y}, cfg.DCEgress),
	}
	sns := make([]*Supernode, s)
	for i := range sns {
		pos := placer.Place(rng)
		if i > 0 && rng.Float64() < 0.1 {
			pos = sns[rng.Intn(i)].Pos // coincident position → distance tie
		}
		capacity := 1 + rng.Intn(6)
		sns[i] = NewSupernode(1_000_000+int64(i), pos, capacity, int64(capacity)*cfg.UplinkPerSlot)
	}
	// Shuffled registration order: the shortlist must not depend on it.
	for i := len(sns) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		sns[i], sns[j] = sns[j], sns[i]
	}
	f, err := BuildFog(cfg, dcs, sns, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// occupy fills sn with fresh players through the Fog's own attach path, so
// the shortlist index follows every capacity change the way it does for a
// real join. The players come back online and attached, ready for Leave.
func occupy(f *Fog, sn *Supernode, nextID *int64) []*Player {
	var ps []*Player
	for sn.Available() > 0 {
		p := &Player{ID: *nextID, Online: true}
		*nextID++
		f.players[p.ID] = p
		f.attachSN(p, sn, 0)
		ps = append(ps, p)
	}
	return ps
}

// TestShortlistMatchesReference is the property test for the shortlist: on
// randomized instances — varying supernode counts, k, capacity exhaustion,
// the overload ladder, Exclude blacklists, churned registrations — the
// spatial-indexed shortlist must return exactly the same supernodes in the
// same order as the naive scan-and-sort reference.
func TestShortlistMatchesReference(t *testing.T) {
	rng := sim.NewRand(20260805)
	for trial := 0; trial < 40; trial++ {
		cfg := testConfig()
		if trial%2 == 1 {
			cfg.Locator.ErrorSigma = 120 // noisy geolocation; clamped estimates
		}
		if trial%5 == 2 {
			cfg.Exclude = func(id int64) bool { return id%4 == 0 }
		}
		if trial%3 == 1 {
			cfg.Overload = newLadder(t)
		}
		s := 1 + rng.Intn(300)
		f := buildRandomFog(t, cfg, s, rng)

		// Churn the registration set: deregister a few, re-register fresh
		// instances, so the index has seen removes as well as inserts.
		for _, sn := range append([]*Supernode(nil), f.snOrder...) {
			if rng.Float64() < 0.15 {
				spec := *sn
				f.DeregisterSupernode(sn.ID)
				if rng.Float64() < 0.5 {
					fresh := NewSupernode(spec.ID, spec.Pos, spec.Capacity, spec.Uplink)
					if err := f.RegisterSupernode(fresh); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		// Exhaust a random subset of supernode capacity, then free a slot or
		// two on some of the full ones: without a ladder those are
		// admissible again, with one they sit in Rejecting on hysteresis —
		// a free slot the shortlist must still pass over.
		pid := int64(1)
		for _, sn := range f.snOrder {
			if rng.Float64() < 0.3 {
				ps := occupy(f, sn, &pid)
				if rng.Float64() < 0.4 {
					for _, p := range ps[:1+rng.Intn(len(ps))] {
						f.Leave(p)
					}
				}
			}
		}
		checkIndex(t, f)

		for q := 0; q < 25; q++ {
			x := rng.Float64() * cfg.Region.Width
			y := rng.Float64() * cfg.Region.Height
			k := 1 + rng.Intn(30)
			got := f.shortlist(x, y, k)
			want := shortlistReference(f, x, y, k)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (S=%d k=%d): got %d candidates, reference %d",
					trial, q, s, k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d query %d (S=%d k=%d): position %d: got supernode %d, reference %d",
						trial, q, s, k, i, got[i].ID, want[i].ID)
				}
			}
		}
	}
}

// TestShortlistSkipsExhaustedAndExcluded pins the two ways a registered
// supernode stays off a shortlist: a full one is out of the index until a
// slot frees, a blacklisted one is filtered per query.
func TestShortlistSkipsExhaustedAndExcluded(t *testing.T) {
	cfg := testConfig()
	cfg.Exclude = func(id int64) bool { return id == 1_000_003 }
	f := buildTestFog(t, cfg, 10)
	center := cfg.Region.Center()
	pid := int64(1000)
	ps := occupy(f, f.sns[1_000_001], &pid)
	got := f.shortlist(center.X, center.Y, 10)
	if len(got) != 8 {
		t.Fatalf("shortlist returned %d of 10 supernodes, want 8 (one full, one excluded)", len(got))
	}
	for _, sn := range got {
		if sn.ID == 1_000_001 || sn.ID == 1_000_003 {
			t.Fatalf("shortlist returned filtered supernode %d", sn.ID)
		}
	}
	checkIndex(t, f)

	f.Leave(ps[0])
	if got := f.shortlist(center.X, center.Y, 10); len(got) != 9 {
		t.Fatalf("shortlist returned %d of 10 supernodes after a slot freed, want 9 (one excluded)", len(got))
	}
	checkIndex(t, f)
}

// TestShortlistPassesOverRejectingNode: with a ladder configured, a node
// that filled up and then lost one player has a free slot but still sits in
// Rejecting on hysteresis — off the shortlist until the ladder lets go.
func TestShortlistPassesOverRejectingNode(t *testing.T) {
	cfg := testConfig()
	ol := newLadder(t)
	cfg.Overload = ol
	f := buildTestFog(t, cfg, 3)
	center := cfg.Region.Center()
	hot := f.sns[1_000_000]
	pid := int64(1000)
	ps := occupy(f, hot, &pid)
	heldBack := false
	for i, p := range ps {
		f.Leave(p)
		listed := false
		for _, sn := range f.shortlist(center.X, center.Y, 3) {
			listed = listed || sn == hot
		}
		if want := ol.Admit(hot.ID); listed != want {
			t.Fatalf("after %d of %d players left (ladder %v): on the shortlist = %v, Admit = %v",
				i+1, len(ps), ol.State(hot.ID), listed, want)
		}
		heldBack = heldBack || !listed
		checkIndex(t, f)
	}
	if !heldBack {
		t.Fatal("the node was never held back with a slot free: the test did not reach Rejecting-on-hysteresis")
	}
	if !ol.Admit(hot.ID) {
		t.Fatalf("emptied supernode still %v", ol.State(hot.ID))
	}
}

// TestJoinsRejectedCountsNamedBackupsOnly: joins_rejected counts a failover
// whose recorded backup refuses the player, never how many rejecting nodes a
// shortlist happened to pass — those are not in the index to be passed.
func TestJoinsRejectedCountsNamedBackupsOnly(t *testing.T) {
	cfg := testConfig()
	cfg.Latency = benignModel(cfg)
	ol := newLadder(t)
	cfg.Overload = ol
	cfg.Health = obs.HealthStatsIn(obs.NewRegistry())
	f := buildTestFog(t, cfg, 4)
	center := cfg.Region.Center()

	p := testPlayer(1, center, mustGame(t, 5))
	f.Join(p)
	if len(p.Backups) == 0 {
		t.Fatal("no backups recorded")
	}
	// The first backup fills up and loses one player: a slot is free, the
	// ladder still refuses.
	backup := p.Backups[0]
	pid := int64(1000)
	f.Leave(occupy(f, backup, &pid)[0])
	if backup.Available() == 0 || ol.Admit(backup.ID) {
		t.Fatalf("backup has %d free slots in state %v, want a free slot held in Rejecting",
			backup.Available(), ol.State(backup.ID))
	}
	// Joins beside a rejecting node count nothing.
	for i := int64(0); i < 5; i++ {
		q := testPlayer(10+i, center, mustGame(t, 5))
		f.Join(q)
		f.Leave(q)
	}
	if n := cfg.Health.JoinsRejected.Load(); n != 0 {
		t.Fatalf("joins_rejected = %d after plain joins, want 0", n)
	}
	// The player's serving node dies; its named backup refuses it, once.
	for _, orphan := range f.FailSupernode(p.Attached.SN.ID) {
		f.Failover(orphan)
	}
	if !p.Attached.Served() || p.Attached.SN == backup {
		t.Fatalf("failover left the player on %+v, want service off the rejecting backup", p.Attached)
	}
	if n := cfg.Health.JoinsRejected.Load(); n != 1 {
		t.Fatalf("joins_rejected = %d after one refused backup, want 1", n)
	}
	checkIndex(t, f)
}

// --- Shortlist microbenchmarks: the scaling curve toward millions of
// users. BenchmarkShortlist queries the spatial index; the Naive variant
// runs the scan-and-sort reference on the identical fog. ---

func benchFogAt(b *testing.B, s int) *Fog {
	b.Helper()
	cfg := DefaultConfig(17)
	return buildRandomFog(b, cfg, s, sim.NewRand(int64(s)))
}

func BenchmarkShortlist(b *testing.B) {
	for _, s := range []int{600, 5_000, 50_000} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			f := benchFogAt(b, s)
			rng := sim.NewRand(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := rng.Float64() * f.cfg.Region.Width
				y := rng.Float64() * f.cfg.Region.Height
				if got := f.shortlist(x, y, f.cfg.Candidates); len(got) == 0 {
					b.Fatal("empty shortlist")
				}
			}
		})
	}
}

func BenchmarkShortlistNaive(b *testing.B) {
	for _, s := range []int{600, 5_000, 50_000} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			f := benchFogAt(b, s)
			rng := sim.NewRand(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x := rng.Float64() * f.cfg.Region.Width
				y := rng.Float64() * f.cfg.Region.Height
				if got := shortlistReference(f, x, y, f.cfg.Candidates); len(got) == 0 {
					b.Fatal("empty shortlist")
				}
			}
		})
	}
}
