package core

import (
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/sim"
	"cloudfog/internal/spatial"
)

// checkIndex asserts the Fog's four bookkeeping invariants. snIdx holds
// exactly the registered supernodes a join could use — a free slot and, with a
// ladder configured, Overload.Admit; roomIdx holds exactly those of them that
// one more player would leave short of Migrating, so none without a ladder.
// Every entry sits at the position geolocated when its supernode registered,
// and each supernode's transition flags say what the grids hold. snOrder holds
// every registered instance once, at its own slot, and snDead nils that never
// outnumber the living. It reads snOrder as it lies — Supernodes() would
// compact it first. Every registered supernode's member list holds each member
// at the index the player records and points back at the node through its
// attachment, no player is on two lists, and the lists together hold no more
// players than are online (checkCensus makes that an equality for a test that
// knows who is online and unserved).
func checkIndex(t testing.TB, f *Fog) {
	t.Helper()
	ol := f.cfg.Overload
	indexed, roomy := make(map[int64]bool), make(map[int64]bool)
	listed := make(map[*Player]bool)
	dead := 0
	for i, sn := range f.snOrder {
		if sn == nil {
			dead++
			continue
		}
		for j, m := range sn.players {
			switch p, a := m.p, m.p.Attached; {
			case int(p.slot) != j:
				t.Fatalf("supernode %d lists player %d at %d, the player records slot %d", sn.ID, p.ID, j, p.slot)
			case listed[p]:
				t.Fatalf("player %d is on two member lists, one of them supernode %d's", p.ID, sn.ID)
			case !p.Online || a.SN != sn || a.DC != sn.DC:
				t.Fatalf("supernode %d lists player %d (online=%v), whose attachment is %+v", sn.ID, p.ID, p.Online, a)
			}
			listed[m.p] = true
		}
		if sn.slot != i || f.sns[sn.ID] != sn {
			t.Fatalf("registration order holds supernode %d (slot %d) at %d; registered under that ID: %v",
				sn.ID, sn.slot, i, f.sns[sn.ID] == sn)
		}
		if sn.Available() > 0 && (ol == nil || ol.Admit(sn.ID)) {
			indexed[sn.ID] = true
			if ol != nil && !ol.WouldMigrate(sn.Load()+1, sn.Capacity) {
				roomy[sn.ID] = true
			}
		}
		if sn.indexed != indexed[sn.ID] || sn.roomy != roomy[sn.ID] {
			t.Fatalf("supernode %d (%d of %d slots taken) is flagged indexed=%v roomy=%v, want %v and %v",
				sn.ID, sn.Load(), sn.Capacity, sn.indexed, sn.roomy, indexed[sn.ID], roomy[sn.ID])
		}
	}
	if live := len(f.snOrder) - dead; dead != f.snDead || dead > live || live != len(f.sns) {
		t.Fatalf("registration order holds %d supernodes and %d gaps; the fog counts %d gaps and %d registered",
			live, dead, f.snDead, len(f.sns))
	}
	if len(listed) > f.OnlinePlayers() {
		t.Fatalf("member lists hold %d players, the fog counts %d online", len(listed), f.OnlinePlayers())
	}
	checkGrid(t, f, "shortlist", f.snIdx, indexed)
	checkGrid(t, f, "relief", f.roomIdx, roomy)
}

// checkCensus asserts that the Fog's count of online players is the players
// its nodes list plus the online ones nothing serves — given players, everyone
// who ever joined f.
func checkCensus(t testing.TB, f *Fog, players []*Player) {
	t.Helper()
	n := 0
	for _, sn := range f.Supernodes() {
		n += sn.Load()
	}
	for _, dc := range f.dcs {
		n += dc.DirectPlayers()
	}
	served := n
	for _, p := range players {
		if p.Online && !p.Attached.Served() {
			n++
		}
	}
	if n != f.OnlinePlayers() {
		t.Fatalf("nodes list %d players and %d more are online unserved; the fog counts %d online",
			served, n-served, f.OnlinePlayers())
	}
}

// ringOf returns the backup ring recorded for p's attachment: its entry's on
// the supernode that serves it, nil for anyone else.
func ringOf(p *Player) []*Supernode {
	if sn := p.Attached.SN; sn != nil {
		return sn.players[p.slot].ring
	}
	return nil
}

// checkLedgers recounts, from players — everyone who ever joined f — what the
// Fog keeps as running tallies and side stores: each datacenter's
// DirectPlayers is the players attached to it with no supernode between;
// CloudBandwidth is Λ per loaded supernode plus the wire rate of every player
// a main datacenter streams to; and a backup ring exists exactly for the
// supernodes' members, on their entries, and for the orphans no Failover has
// repaired yet, in orphanRings — no ring naming the supernode that serves it.
func checkLedgers(t testing.TB, f *Fog, players []*Player) {
	t.Helper()
	direct := make(map[*Datacenter]int)
	bandwidth, orphans := int64(0), 0
	for _, sn := range f.Supernodes() {
		if sn.Load() > 0 {
			bandwidth += f.cfg.UpdateBandwidth
		}
	}
	for _, p := range players {
		a := p.Attached
		switch a.Kind() {
		case AttachCloud:
			bandwidth += f.cfg.WireRate(p.Game().Quality().Bitrate)
			fallthrough
		case AttachEdge:
			direct[a.DC]++
		}
		ring, stored := f.orphanRings[p]
		switch orphan := p.Online && !a.Served(); {
		case orphan && !stored:
			t.Fatalf("orphan %d waits for repair without its backup ring", p.ID)
		case !orphan && stored:
			t.Fatalf("player %d (online=%v, served by %v) has a ring in the orphan store", p.ID, p.Online, a.Kind())
		case orphan:
			orphans++
		case a.SN != nil:
			ring = ringOf(p)
		}
		for _, b := range ring {
			if b == a.SN {
				t.Fatalf("player %d's serving supernode %d sits in its own backup ring", p.ID, b.ID)
			}
		}
	}
	for _, dc := range f.dcs {
		if dc.DirectPlayers() != direct[dc] {
			t.Fatalf("datacenter %d counts %d direct players, %d are attached to it", dc.ID, dc.DirectPlayers(), direct[dc])
		}
	}
	if got := f.CloudBandwidth(); got != bandwidth {
		t.Fatalf("CloudBandwidth() = %d, a recount from the attachments gives %d", got, bandwidth)
	}
	if len(f.orphanRings) != orphans {
		t.Fatalf("the orphan store holds %d rings, %d orphans await repair", len(f.orphanRings), orphans)
	}
}

// system names one of the three systems a Fog is, for the property tests that
// run on each: CloudFog, with supernodes; Cloud, datacenters only; EdgeCloud,
// capacity-limited edge servers leading the datacenters.
type system string

const (
	sysCloudFog  system = "cloudfog"
	sysCloud     system = "cloud"
	sysEdgeCloud system = "edgecloud"
)

// edgeServers returns four small edge servers around the region's center, for
// an EdgeCloud-shaped fog: few enough slots that players overflow to the
// datacenters.
func edgeServers(cfg Config) []*Datacenter {
	c := cfg.Region.Center()
	out := make([]*Datacenter, 4)
	for i := range out {
		pos := geo.Point{X: c.X + float64(i%2*600-300), Y: c.Y + float64(i/2*400-200)}
		out[i] = NewEdgeServer(3_000_000+int64(i), pos, cfg.DCEgress/10, 6)
	}
	return out
}

// checkOrder asserts that Supernodes() is the reference: dense, in
// registration order, each entry the instance now registered under its ID.
func checkOrder(t testing.TB, f *Fog, want []*Supernode) {
	t.Helper()
	got := f.Supernodes()
	if len(got) != len(want) {
		t.Fatalf("Supernodes() lists %d supernodes, %d are registered", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Supernodes()[%d] is not the %d-th registered instance (want supernode %d)", i, i, want[i].ID)
		}
	}
}

// withoutID returns the reference order after the supernode registered under
// id left it — the plain scan and shift FailSupernode no longer does.
func withoutID(order []*Supernode, id int64) []*Supernode {
	for i, sn := range order {
		if sn.ID == id {
			return append(order[:i], order[i+1:]...)
		}
	}
	return order
}

// checkGrid asserts that one of the Fog's indexes holds exactly the
// supernodes in want, each at its registered estimate.
func checkGrid(t testing.TB, f *Fog, name string, g *spatial.Grid, want map[int64]bool) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("%s index holds %d supernodes, %d of %d registered belong in it",
			name, g.Len(), len(want), len(f.sns))
	}
	for _, nb := range g.Nearest(0, 0, len(f.sns)+1, nil) {
		if !want[nb.ID] {
			t.Fatalf("%s index holds supernode %d, which is full, rejecting, brimming or gone", name, nb.ID)
		}
		if est := f.snEstPos[nb.ID]; nb.Dist2 != dist2(0, 0, est.x, est.y) {
			t.Fatalf("%s index holds supernode %d away from its registered estimate", name, nb.ID)
		}
	}
}

// newLadder returns a default overload ladder for a test fog.
func newLadder(t testing.TB) *health.Overload {
	t.Helper()
	return ladderOf(t, health.OverloadConfig{})
}

// earlyLadder returns a ladder whose Migrating rung sits at half full. Under
// the default MigrateAt of 1.0 "one more player would not tip it into
// Migrating" is just "two slots free", and a node relief has shed one player
// from has exactly one; under this ladder neither holds, so the relief index
// and the drained-node filter each have to be right on their own.
func earlyLadder(t testing.TB) *health.Overload {
	t.Helper()
	return ladderOf(t, health.OverloadConfig{
		DegradeAt: 0.3, ShedAt: 0.4, RejectAt: 0.5, MigrateAt: 0.5, Hysteresis: 0.2,
	})
}

func ladderOf(t testing.TB, cfg health.OverloadConfig) *health.Overload {
	t.Helper()
	ol, err := health.NewOverload(cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ol
}

// TestFogInvariantsUnderRandomOps drives a fog — without the overload ladder,
// with the default one and with one that migrates at half full — through
// random join, leave, supernode-departure, supernode-return and
// overload-relief operations. The index and registration-order invariants
// (checkIndex) and Supernodes() against a plain reference slice (checkOrder)
// are checked after every step, the structural invariants every 50:
//
//   - a supernode's load never exceeds its capacity;
//   - every online player is served (supernode or cloud), every offline
//     player is detached;
//   - the serving node's membership agrees with the player's attachment;
//   - no backup ring names its player's serving supernode.
//
// The tallies checkLedgers recounts are checked after every step too, on the
// CloudFog fogs and on a Cloud and an EdgeCloud one.
func TestFogInvariantsUnderRandomOps(t *testing.T) {
	t.Run("ladder=off", func(t *testing.T) { fogInvariantsUnderRandomOps(t, sysCloudFog, nil) })
	t.Run("ladder=on", func(t *testing.T) { fogInvariantsUnderRandomOps(t, sysCloudFog, newLadder(t)) })
	t.Run("ladder=early", func(t *testing.T) { fogInvariantsUnderRandomOps(t, sysCloudFog, earlyLadder(t)) })
	t.Run("cloud", func(t *testing.T) { fogInvariantsUnderRandomOps(t, sysCloud, nil) })
	t.Run("edgecloud", func(t *testing.T) { fogInvariantsUnderRandomOps(t, sysEdgeCloud, nil) })
}

func fogInvariantsUnderRandomOps(t *testing.T, sys system, ladder *health.Overload) {
	cfg := testConfig()
	cfg.Overload = ladder
	rng := sim.NewRand(20260705)
	placer := geo.DefaultUSPlacer()

	nSN := 30
	const nPlayers = 120
	const steps = 3000

	center := cfg.Region.Center()
	dcs := []*Datacenter{
		NewDatacenter(2_000_000, geo.Point{X: center.X - 1000, Y: center.Y}, cfg.DCEgress),
		NewDatacenter(2_000_001, geo.Point{X: center.X + 1000, Y: center.Y}, cfg.DCEgress),
	}
	switch sys {
	case sysCloud:
		nSN = 0
	case sysEdgeCloud:
		nSN = 0
		dcs = append(edgeServers(cfg), dcs...)
	}
	specs := make([]*Supernode, nSN)
	for i := range specs {
		capacity := 1 + rng.Intn(6)
		specs[i] = NewSupernode(1_000_000+int64(i), placer.Place(rng), capacity,
			int64(capacity)*cfg.UplinkPerSlot)
	}
	fog, err := BuildFog(cfg, dcs, specs, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}

	players := make([]*Player, nPlayers)
	for i := range players {
		g, _ := game.ByID(1 + rng.Intn(5))
		players[i] = &Player{ID: int32(i), Pos: placer.Place(rng), GameID: uint8(g.ID), Downlink: 20_000_000}
	}
	registered := make(map[int64]*Supernode)
	for _, sn := range specs {
		registered[sn.ID] = sn
	}
	order := append([]*Supernode(nil), specs...) // what Supernodes() must list

	check := func(step int) {
		t.Helper()
		// Per-supernode load vs capacity and membership agreement.
		attachedCount := make(map[int64]int)
		for _, p := range players {
			if p.Online {
				if !p.Attached.Served() {
					t.Fatalf("step %d: online player %d unserved", step, p.ID)
				}
				switch p.Attached.Kind() {
				case AttachSupernode:
					sn := p.Attached.SN
					if _, live := registered[sn.ID]; !live {
						t.Fatalf("step %d: player %d attached to departed supernode %d", step, p.ID, sn.ID)
					}
					attachedCount[sn.ID]++
					if int(p.slot) >= sn.Load() || sn.players[p.slot].p != p {
						t.Fatalf("step %d: supernode %d does not list its player %d", step, sn.ID, p.ID)
					}
				case AttachCloud, AttachEdge:
					if p.Attached.DC == nil {
						t.Fatalf("step %d: direct attachment without datacenter", step)
					}
				}
			} else if p.Attached.Served() {
				t.Fatalf("step %d: offline player %d still attached", step, p.ID)
			}
		}
		for _, sn := range fog.Supernodes() {
			if sn.Load() > sn.Capacity {
				t.Fatalf("step %d: supernode %d load %d exceeds capacity %d",
					step, sn.ID, sn.Load(), sn.Capacity)
			}
			if sn.Load() != attachedCount[sn.ID] {
				t.Fatalf("step %d: supernode %d load %d but %d players point at it",
					step, sn.ID, sn.Load(), attachedCount[sn.ID])
			}
		}
	}

	moved := 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(11); {
		case op < 5: // join a random offline player
			p := players[rng.Intn(nPlayers)]
			if !p.Online {
				fog.Join(p)
			}
		case op < 8: // leave a random online player
			p := players[rng.Intn(nPlayers)]
			if p.Online {
				fog.Leave(p)
			}
		case op < 9: // a random supernode departs gracefully
			sns := fog.Supernodes()
			if len(sns) > 0 {
				sn := sns[rng.Intn(len(sns))]
				delete(registered, sn.ID)
				order = withoutID(order, sn.ID)
				fog.DeregisterSupernode(sn.ID)
			}
		case op < 10: // a departed supernode returns as a fresh machine
			for _, spec := range specs {
				if _, live := registered[spec.ID]; !live {
					fresh := NewSupernode(spec.ID, spec.Pos, spec.Capacity, spec.Uplink)
					if err := fog.RegisterSupernode(fresh); err != nil {
						t.Fatalf("step %d: re-register: %v", step, err)
					}
					registered[spec.ID] = fresh
					order = append(order, fresh)
					break
				}
			}
		default: // the relief tick (a no-op without a ladder)
			moved += fog.RelieveOverloaded()
		}
		checkIndex(t, fog)
		checkCensus(t, fog, players)
		checkLedgers(t, fog, players)
		checkOrder(t, fog, order)
		if step%50 == 0 {
			check(step)
		}
	}
	check(steps)
	if (moved > 0) != (ladder != nil) {
		t.Fatalf("relief moved %d players over %d steps with ladder %v", moved, steps, ladder != nil)
	}
}

// TestFlowLatencyMonotoneInBitrate: a higher encoding bitrate can never
// reduce the flow latency (transmission grows with segment size).
func TestFlowLatencyMonotoneInBitrate(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 5)
	p := testPlayer(500, cfg.Region.Center(), mustGame(t, 5))
	f.Join(p)
	var prev time.Duration
	for lvl := 1; lvl <= 5; lvl++ {
		q := game.MustLevelAt(lvl)
		l := FlowLatencyAt(cfg, p, q.Bitrate)
		if lvl > 1 && l < prev {
			t.Fatalf("latency decreased when bitrate rose: L%d=%v < L%d=%v", lvl, l, lvl-1, prev)
		}
		prev = l
	}
}

// TestAdaptedFlowLatencyNeverWorse: the adaptation proxy never yields a
// higher latency than the unadapted flow.
func TestAdaptedFlowLatencyNeverWorse(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 5)
	rng := sim.NewRand(9)
	placer := geo.DefaultUSPlacer()
	for i := 0; i < 200; i++ {
		g, _ := game.ByID(1 + rng.Intn(5))
		p := testPlayer(600+int64(i), placer.Place(rng), g)
		f.Join(p)
		if a, b := AdaptedFlowLatency(cfg, p), FlowLatency(cfg, p); a > b {
			t.Fatalf("adapted latency %v > unadapted %v for game %d", a, b, g.ID)
		}
		f.Leave(p)
	}
}
