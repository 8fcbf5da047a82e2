package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
)

// shortlistReference is the pre-index shortlist kept as the oracle for both
// indexes: a full scan over the geolocated supernode table — capacity and the
// ladder's Admit checked per node, per query, and while relief re-places an
// evictee the node being drained and any node one admit from Migrating — plus
// a sort. Ties break on supernode ID, matching the spatial index's determinism
// contract.
func shortlistReference(f *Fog, x, y float64, k int) []*Supernode {
	type entry struct {
		sn *Supernode
		d  float64
	}
	entries := make([]entry, 0, len(f.sns))
	for _, sn := range f.Supernodes() {
		if sn.Available() <= 0 {
			continue
		}
		if f.cfg.Overload != nil && !f.cfg.Overload.Admit(sn.ID) {
			continue
		}
		if f.relieving != nil && (sn == f.relieving || f.cfg.Overload.WouldMigrate(sn.Load()+1, sn.Capacity)) {
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

// seat puts n fresh players standing at sn onto it through the Fog's own
// attach path, so the shortlist index follows every capacity change the way
// it does for a real join. The players come back online and attached, ready
// for Leave or for relief to evict and re-place.
func seat(f *Fog, sn *Supernode, n int, nextID *int64) []*Player {
	g, _ := game.ByID(5)
	ps := make([]*Player, n)
	for i := range ps {
		ps[i] = testPlayer(*nextID, sn.Pos, g)
		ps[i].Online = true
		*nextID++
		f.online++
		f.attachSN(ps[i], sn, 0)
	}
	return ps
}

// occupy fills sn to capacity.
func occupy(f *Fog, sn *Supernode, nextID *int64) []*Player {
	return seat(f, sn, sn.Available(), nextID)
}

// TestShortlistMatchesReference is the property test for the shortlist: on
// randomized instances — varying supernode counts, k, capacity exhaustion,
// the overload ladder, a relief sweep in progress, churned registrations —
// the spatial-indexed shortlist must return exactly the same supernodes in
// the same order as the naive scan-and-sort reference.
func TestShortlistMatchesReference(t *testing.T) {
	rng := sim.NewRand(20260805)
	for trial := 0; trial < 40; trial++ {
		cfg := testConfig()
		if trial%2 == 1 {
			cfg.Locator.ErrorSigma = 120 // noisy geolocation; clamped estimates
		}
		inRelief := trial%5 == 2
		if trial%3 == 1 || inRelief {
			cfg.Overload = newLadder(t)
		}
		if trial%10 == 7 {
			// Every other sweep runs under a ladder that migrates at half
			// full, where the relief index is not just "two slots free".
			cfg.Overload = earlyLadder(t)
		}
		s := 1 + rng.Intn(300)
		f := buildRandomFog(t, cfg, s, rng)

		// Churn the registration set: deregister a few, re-register fresh
		// instances, so the index has seen removes as well as inserts.
		for _, sn := range append([]*Supernode(nil), f.Supernodes()...) {
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
		for _, sn := range f.Supernodes() {
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
		if sns := f.Supernodes(); inRelief && len(sns) > 0 {
			// As while RelieveOverloaded re-places an evictee of this node.
			f.relieving = sns[rng.Intn(len(sns))]
		}

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
// supernode stays off a shortlist: a full one is out of the index until the
// ladder admits it again, the one relief is draining is filtered per query
// while its evictee is re-placed — and only then.
func TestShortlistSkipsExhaustedAndExcluded(t *testing.T) {
	cfg := testConfig()
	ol := newLadder(t)
	cfg.Overload = ol
	f := buildTestFog(t, cfg, 10)
	center := cfg.Region.Center()
	pid := int64(1000)
	full := f.sns[1_000_001]
	ps := occupy(f, full, &pid)

	f.relieving = f.sns[1_000_003]
	got := f.shortlist(center.X, center.Y, 10)
	f.relieving = nil
	if len(got) != 8 {
		t.Fatalf("shortlist returned %d of 10 supernodes, want 8 (one full, one being drained)", len(got))
	}
	for _, sn := range got {
		if sn.ID == 1_000_001 || sn.ID == 1_000_003 {
			t.Fatalf("shortlist returned filtered supernode %d", sn.ID)
		}
	}
	if got := f.shortlist(center.X, center.Y, 10); len(got) != 9 {
		t.Fatalf("shortlist returned %d of 10 supernodes outside relief, want 9 (one full)", len(got))
	}
	checkIndex(t, f)

	for _, p := range ps {
		if ol.Admit(full.ID) {
			break
		}
		f.Leave(p)
	}
	if got := f.shortlist(center.X, center.Y, 10); len(got) != 10 {
		t.Fatalf("shortlist returned %d of 10 supernodes after the full one let go, want 10", len(got))
	}
	checkIndex(t, f)
}

// reliefSpy is a latency source that watches the relief filter from inside
// the assignment protocol. A join's probes follow its shortlist with nothing
// in between, so the binding a probe sees is the one its shortlist ran under.
type reliefSpy struct {
	trace.Source
	f       *Fog
	inSweep bool               // the test is inside RelieveOverloaded
	leaked  *Supernode         // a binding seen outside a sweep
	unbound int                // probes inside a sweep that saw no binding
	bound   map[*Supernode]int // probes per bound node inside a sweep
	onProbe func()             // runs once per probe inside a sweep
}

func (s *reliefSpy) OneWay(a, b trace.Endpoint) time.Duration {
	switch {
	case s.f == nil: // BuildFog registering the initial supernodes
	case !s.inSweep:
		if s.f.relieving != nil {
			s.leaked = s.f.relieving
		}
	case s.f.relieving == nil:
		s.unbound++
	default:
		s.bound[s.f.relieving]++
		if s.onProbe != nil {
			s.onProbe()
		}
	}
	return s.Source.OneWay(a, b)
}

// TestShortlistFilterOnlyInsideRelief: the shortlist filter is bound to the
// node being drained on every probe RelieveOverloaded causes and to nothing on
// every other probe — joins, failovers, registrations — including right after
// a sweep that moved nobody, one that moved somebody, and one that ran into
// the pass cap.
func TestShortlistFilterOnlyInsideRelief(t *testing.T) {
	cfg := testConfig()
	spy := &reliefSpy{Source: benignModel(cfg), bound: make(map[*Supernode]int)}
	cfg.Latency = spy
	cfg.Overload = newLadder(t)
	f := buildTestFog(t, cfg, 10)
	spy.f = f
	sweep := func() int {
		spy.inSweep = true
		defer func() { spy.inSweep = false }()
		return f.RelieveOverloaded()
	}
	// outside exercises every probing path that is not relief, then reports
	// any binding a probe saw.
	g := mustGame(t, 5)
	next := int64(1)
	outside := func(when string) {
		t.Helper()
		p := testPlayer(next, cfg.Region.Center(), g)
		next++
		f.Join(p)
		if p.Attached.Kind() != AttachSupernode {
			t.Fatalf("%s: join attached to %v, want a supernode", when, p.Attached.Kind())
		}
		spec := *p.Attached.SN
		f.DeregisterSupernode(spec.ID)
		if err := f.RegisterSupernode(NewSupernode(spec.ID, spec.Pos, spec.Capacity, spec.Uplink)); err != nil {
			t.Fatal(err)
		}
		f.Leave(p)
		if f.relieving != nil || spy.leaked != nil {
			t.Fatalf("%s: relief filter bound outside RelieveOverloaded (now %v, seen by a probe %v)",
				when, f.relieving, spy.leaked)
		}
		checkIndex(t, f)
	}
	outside("on a fresh fog")

	if n := sweep(); n != 0 || len(spy.bound) != 0 {
		t.Fatalf("idle sweep moved %d players under %d bindings, want none", n, len(spy.bound))
	}
	outside("after a sweep that moved nobody")

	sns := f.Supernodes()
	last := sns[len(sns)-1]
	pid := int64(1000)
	occupy(f, last, &pid)
	if n := sweep(); n != 1 || len(spy.bound) != 1 || spy.bound[last] == 0 || spy.unbound != 0 {
		t.Fatalf("sweep over one full node moved %d players, bindings %v, %d unbound probes; want 1 move probed under that node's binding",
			n, spy.bound, spy.unbound)
	}
	outside("after a sweep that moved somebody")

	// The pass cap is a termination guarantee no sequence of the Fog's own
	// operations reaches — an evictee never lands on a node it would tip into
	// Migrating — so the test tips one from inside the probe: each evictee's
	// first probe fills the node before the one being drained, which the
	// sweep has already passed and finds Migrating on its next pass.
	sns = f.Supernodes()
	order := make(map[*Supernode]int, len(sns))
	for i, sn := range sns {
		order[sn] = i
	}
	var tipped *Supernode
	spy.onProbe = func() {
		if i := order[f.relieving]; i > 0 && tipped != f.relieving {
			tipped = f.relieving
			occupy(f, sns[i-1], &pid)
		}
	}
	occupy(f, sns[len(sns)-1], &pid)
	spy.bound = make(map[*Supernode]int)
	if n := sweep(); n != 8 || len(spy.bound) != 8 || spy.unbound != 0 {
		t.Fatalf("cascading sweep moved %d players under %d bindings (%d unbound probes), want 8 and 8: one per pass up to the cap",
			n, len(spy.bound), spy.unbound)
	}
	if straggler := sns[len(sns)-9]; !f.cfg.Overload.ShouldMigrate(straggler.ID) {
		t.Fatalf("supernode %d is not Migrating: the sweep stopped for some reason other than its pass cap", straggler.ID)
	}
	spy.onProbe = nil
	outside("after a sweep that hit the pass cap")
}

// TestShortlistInReliefKeepsEvicteeOffDrainedAndBrimmingNodes pins what the
// relief filter is for, by where evictees end up. Under the default ladder a
// full node's evictee must pass over a nearer node with one slot left (one
// admit from Migrating: relief would only move the overflow sideways). Under
// a ladder whose Migrating rung sits below full, a drained node drops back to
// an admitting rung with slots to spare, and must still not take its own
// evictee back.
func TestShortlistInReliefKeepsEvicteeOffDrainedAndBrimmingNodes(t *testing.T) {
	// Latency by distance alone and the drained node the one nearest the
	// datacenter: an evictee standing on it ranks it first, its neighbour
	// second, whenever the shortlist offers them.
	build := func(t *testing.T, ol *health.Overload) (f *Fog, hot, neighbour *Supernode) {
		cfg := testConfig()
		cfg.Latency = byDistance{}
		cfg.Overload = ol
		f = buildTestFog(t, cfg, 4)
		sns := f.Supernodes()
		return f, sns[3], sns[2]
	}
	t.Run("brimming", func(t *testing.T) {
		f, hot, brimming := build(t, newLadder(t))
		pid := int64(1000)
		seat(f, brimming, brimming.Capacity-1, &pid)
		ps := occupy(f, hot, &pid)
		evictee := ps[len(ps)-1]
		if n := f.RelieveOverloaded(); n != 1 {
			t.Fatalf("relief moved %d players, want 1 — more means the overflow went sideways and was chased", n)
		}
		if to := evictee.Attached.SN; to == nil || to == hot || to == brimming {
			t.Fatalf("evictee re-placed on %+v, want a supernode other than the drained %d and the brimming %d",
				evictee.Attached, hot.ID, brimming.ID)
		}
		if brimming.Available() != 1 {
			t.Fatalf("brimming node has %d free slots after relief, want its 1 untouched", brimming.Available())
		}
		checkIndex(t, f)
	})
	t.Run("drained", func(t *testing.T) {
		ol := earlyLadder(t)
		f, hot, _ := build(t, ol)
		pid := int64(1000)
		ps := seat(f, hot, 3, &pid) // 3 of 5: Migrating
		if n := f.RelieveOverloaded(); n != 2 {
			t.Fatalf("relief moved %d players, want 2 (3 of 5 → 1 of 5 lets go of Migrating)", n)
		}
		if !ol.Admit(hot.ID) || hot.Load() != 1 {
			t.Fatalf("drained node in state %v with %d players; the case needs it admitting again with 1",
				ol.State(hot.ID), hot.Load())
		}
		for _, p := range ps[1:] {
			if to := p.Attached.SN; to == nil || to == hot {
				t.Fatalf("evictee %d re-placed on %+v, want another supernode than the drained %d", p.ID, p.Attached, hot.ID)
			}
		}
		checkIndex(t, f)
	})
}

// byDistance is a noise-free latency source: 1 ms plus 10 µs per km.
type byDistance struct{}

func (byDistance) OneWay(a, b trace.Endpoint) time.Duration {
	return time.Millisecond + time.Duration(a.Pos.DistanceTo(b.Pos)*float64(10*time.Microsecond))
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

// evictionSpy records, in order, each player that starts a round of probes:
// a join's probes and its cloud fallback all measure from the player, so under
// relief the sequence is the order evictees were re-placed in.
type evictionSpy struct {
	byDistance
	order []int64
}

func (s *evictionSpy) OneWay(a, b trace.Endpoint) time.Duration {
	if n := len(s.order); a.Class == trace.ClassNode && (n == 0 || s.order[n-1] != int64(a.ID)) {
		s.order = append(s.order, int64(a.ID))
	}
	return s.byDistance.OneWay(a, b)
}

// TestReliefEvictsNewestFirst: relief drains a node newest attachment first,
// also after a leave from the middle of its list. Five players sit on one node
// under a ladder that migrates at half full; the second leaves, and the node is
// still Migrating at four of five; relief takes it down to one, moving the
// fifth, fourth and third in that order and keeping the first.
func TestReliefEvictsNewestFirst(t *testing.T) {
	cfg := testConfig()
	spy := &evictionSpy{}
	cfg.Latency = spy
	ol := earlyLadder(t)
	cfg.Overload = ol
	f := buildTestFog(t, cfg, 4)
	hot := f.Supernodes()[3]
	pid := int64(1000)
	ps := seat(f, hot, 5, &pid)
	f.Leave(ps[1])
	if !ol.ShouldMigrate(hot.ID) {
		t.Fatalf("node in state %v at 4 of 5, the case needs it Migrating", ol.State(hot.ID))
	}
	spy.order = nil
	if n := f.RelieveOverloaded(); n != 3 {
		t.Fatalf("relief moved %d players, want 3 (4 of 5 → 1 of 5 lets go of Migrating)", n)
	}
	want := []int64{ps[4].ID, ps[3].ID, ps[2].ID}
	if !slices.Equal(spy.order, want) {
		t.Fatalf("relief re-placed %v, want newest first %v", spy.order, want)
	}
	if hot.Load() != 1 || hot.players[0] != ps[0] {
		t.Fatalf("drained node keeps %v, want only the first player %d", ids(hot.players), ps[0].ID)
	}
	checkIndex(t, f)
}
