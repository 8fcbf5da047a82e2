package core

import (
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/sim"
)

// checkIndex asserts the shortlist index invariant: snIdx holds exactly the
// registered supernodes a join could use — a free slot and, with a ladder
// configured, Overload.Admit — each at the position geolocated when it
// registered.
func checkIndex(t testing.TB, f *Fog) {
	t.Helper()
	want := make(map[int64]bool)
	for _, sn := range f.snOrder {
		if sn.Available() > 0 && (f.cfg.Overload == nil || f.cfg.Overload.Admit(sn.ID)) {
			want[sn.ID] = true
		}
	}
	if f.snIdx.Len() != len(want) {
		t.Fatalf("index holds %d supernodes, %d of %d registered are admissible",
			f.snIdx.Len(), len(want), len(f.snOrder))
	}
	for _, nb := range f.snIdx.Nearest(0, 0, len(f.snOrder)+1, nil) {
		if !want[nb.ID] {
			t.Fatalf("index holds supernode %d, which is full, rejecting or gone", nb.ID)
		}
		if est := f.snEstPos[nb.ID]; nb.Dist2 != dist2(0, 0, est.x, est.y) {
			t.Fatalf("supernode %d indexed away from its registered estimate", nb.ID)
		}
	}
}

// newLadder returns a default overload ladder for a test fog.
func newLadder(t testing.TB) *health.Overload {
	t.Helper()
	ol, err := health.NewOverload(health.OverloadConfig{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ol
}

// TestFogInvariantsUnderRandomOps drives a fog — without and with the
// overload ladder — through random join, leave, supernode-departure,
// supernode-return and overload-relief operations. The shortlist index
// invariant (checkIndex) is checked after every step, the
// structural invariants every 50:
//
//   - a supernode's load never exceeds its capacity;
//   - every online player is served (supernode or cloud), every offline
//     player is detached;
//   - the serving node's membership agrees with the player's attachment;
//   - backups never include the serving supernode or departed supernodes'
//     stale capacity.
func TestFogInvariantsUnderRandomOps(t *testing.T) {
	t.Run("ladder=off", func(t *testing.T) { fogInvariantsUnderRandomOps(t, false) })
	t.Run("ladder=on", func(t *testing.T) { fogInvariantsUnderRandomOps(t, true) })
}

func fogInvariantsUnderRandomOps(t *testing.T, ladder bool) {
	cfg := testConfig()
	if ladder {
		cfg.Overload = newLadder(t)
	}
	rng := sim.NewRand(20260705)
	placer := geo.DefaultUSPlacer()

	const nSN = 30
	const nPlayers = 120
	const steps = 3000

	center := cfg.Region.Center()
	dcs := []*Datacenter{
		NewDatacenter(2_000_000, geo.Point{X: center.X - 1000, Y: center.Y}, cfg.DCEgress),
		NewDatacenter(2_000_001, geo.Point{X: center.X + 1000, Y: center.Y}, cfg.DCEgress),
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
		players[i] = &Player{ID: int64(i), Pos: placer.Place(rng), Game: g, Downlink: 20_000_000}
	}
	registered := make(map[int64]*Supernode)
	for _, sn := range specs {
		registered[sn.ID] = sn
	}

	check := func(step int) {
		t.Helper()
		// Per-supernode load vs capacity and membership agreement.
		attachedCount := make(map[int64]int)
		for _, p := range players {
			if p.Online {
				if !p.Attached.Served() {
					t.Fatalf("step %d: online player %d unserved", step, p.ID)
				}
				switch p.Attached.Kind {
				case AttachSupernode:
					sn := p.Attached.SN
					if _, live := registered[sn.ID]; !live {
						t.Fatalf("step %d: player %d attached to departed supernode %d", step, p.ID, sn.ID)
					}
					attachedCount[sn.ID]++
					if sn.players[p.ID] != p {
						t.Fatalf("step %d: supernode %d does not list its player %d", step, sn.ID, p.ID)
					}
				case AttachCloud:
					if p.Attached.DC == nil {
						t.Fatalf("step %d: cloud attachment without datacenter", step)
					}
				}
				for _, b := range p.Backups {
					if b == p.Attached.SN {
						t.Fatalf("step %d: serving supernode in backups", step)
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
					break
				}
			}
		default: // the relief tick (a no-op without a ladder)
			fog.RelieveOverloaded()
		}
		checkIndex(t, fog)
		if step%50 == 0 {
			check(step)
		}
	}
	check(steps)
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
