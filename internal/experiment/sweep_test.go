package experiment

import (
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/metrics"
	"cloudfog/internal/qoe"
)

// sweepTestWorlds builds two identical small worlds, one forced serial and
// one on a 4-worker pool, so every figure can be compared bit-for-bit.
func sweepTestWorlds(t *testing.T) (serial, parallel *World) {
	t.Helper()
	build := func(workers int) *World {
		cfg := Default(77)
		cfg.Players = 800
		cfg.Supernodes = 60
		cfg.SweepWorkers = workers
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	return build(1), build(4)
}

func mustSeries(t *testing.T, s []metrics.Series, err error) []metrics.Series {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestParallelSweepsMatchSerial is the determinism acceptance test: for a
// fixed seed, every figure's series must be bit-identical whether the
// sweep points run serially or on the worker pool.
func TestParallelSweepsMatchSerial(t *testing.T) {
	ws, wp := sweepTestWorlds(t)
	reqs := []time.Duration{30 * time.Millisecond, 70 * time.Millisecond, 110 * time.Millisecond}

	checks := []struct {
		name string
		run  func(w *World) (interface{}, error)
	}{
		{"CoverageVsDatacenters", func(w *World) (interface{}, error) {
			return CoverageVsDatacenters(w, []int{1, 3, 5}, reqs)
		}},
		{"CoverageVsSupernodes", func(w *World) (interface{}, error) {
			return CoverageVsSupernodes(w, []int{0, 20, 60}, reqs)
		}},
		{"BandwidthVsPlayers", func(w *World) (interface{}, error) {
			return BandwidthVsPlayers(w, []int{200, 500, 800})
		}},
		{"ResponseLatency", func(w *World) (interface{}, error) {
			return ResponseLatency(w)
		}},
		{"ContinuityVsPlayers", func(w *World) (interface{}, error) {
			return ContinuityVsPlayers(w, []int{200, 400}, 2*time.Second)
		}},
		{"AdaptationEffect", func(w *World) (interface{}, error) {
			return AdaptationEffect(w, []int{5, 10}, 2*time.Second)
		}},
	}
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run(ws)
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.run(wp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("serial and parallel outputs differ\nserial:   %+v\nparallel: %+v", got, want)
			}
		})
	}
}

// TestCloneIsolation: joining players in a clone must not leak runtime
// state into the original world's players, nor write through the game a
// clone's player shares with its original.
func TestCloneIsolation(t *testing.T) {
	ws, _ := sweepTestWorlds(t)
	shooter, err := game.ByID(1)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := ws.NewFog(ws.Cfg.Datacenters, ws.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	ws.LeaveAll(orig, ws.JoinAllGame(orig, ws.Cfg.Players, shooter))
	cw := ws.Clone()
	sys, err := cw.NewFog(cw.Cfg.Datacenters, cw.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	players := cw.JoinAll(sys, 300)
	if len(players) == 0 {
		t.Fatal("no players joined in clone")
	}
	for _, p := range ws.Pop.Players {
		if p.Online || p.Attached.Served() {
			t.Fatalf("player %d in the original world picked up clone state", p.ID)
		}
		if p.Game() == nil || p.Game().ID != 1 {
			t.Fatalf("player %d's game changed under its clone's JoinAll: %+v", p.ID, p.Game())
		}
	}
	// Shared immutable spec: same IDs and positions in both worlds.
	for i, p := range ws.Pop.Players {
		cp := cw.Pop.Players[i]
		if p.ID != cp.ID || p.Pos != cp.Pos {
			t.Fatalf("clone changed player %d's spec", p.ID)
		}
	}
	// Node runs in the clone grow the clone's pools and deal, not the
	// original's, and a clone of a world that holds them starts with none: two
	// sweep workers never share a pool, a spec slice or a result slice.
	if _, err := groupRun(cw, sys, players, qoe.DefaultOptions(), time.Second); err != nil {
		t.Fatal(err)
	}
	if len(cw.runs.pools) == 0 || len(cw.runs.specs) == 0 || len(cw.runs.results) == 0 {
		t.Fatalf("the world that ran kept nothing: %d pools, %d specs, %d results",
			len(cw.runs.pools), len(cw.runs.specs), len(cw.runs.results))
	}
	if !reflect.DeepEqual(ws.runs, nodeRuns{}) {
		t.Fatal("the original world picked up its clone's node-run state")
	}
	if !reflect.DeepEqual(cw.Clone().runs, nodeRuns{}) {
		t.Fatal("a clone inherited its parent's pools or scratch")
	}
}

// TestCloneAllocsFlatInPopulation: a clone copies its players in one piece, so
// it allocates as often for 2 000 players as for 200 — not once per player.
func TestCloneAllocsFlatInPopulation(t *testing.T) {
	allocs := func(players int) float64 {
		cfg := Default(31)
		cfg.Players = players
		cfg.Supernodes = players / 50
		cfg.EdgeServers = 5
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() { w.Clone() })
	}
	if small, large := allocs(200), allocs(2000); small != large {
		t.Fatalf("Clone allocates %.0f times for 200 players and %.0f for 2 000", small, large)
	}
}

// TestSweepSerialFastPathUsesOriginalWorld: with one worker the sweep must
// run on the original world (no clone), preserving pre-harness behavior.
func TestSweepSerialFastPathUsesOriginalWorld(t *testing.T) {
	ws, _ := sweepTestWorlds(t)
	err := ws.sweepPoints(3, func(pw *World, i int) error {
		if pw != ws {
			t.Fatal("serial sweep did not run on the original world")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGroupRunSteadyStateAllocs: a world keeps what its node runs reuse, so
// the second groupRun of a point allocates one sim struct per serving node,
// one sort closure per Eq. 14 repair and a handful for the worker loop — not
// the group map, per-node spec slices, result copies, pools, arenas, segment
// sets and generators the first one built. Measured on this point: 121
// allocations for 59 nodes (2 305 when groupRun built its pools per call); the
// ceiling sits a quarter above.
func TestGroupRunSteadyStateAllocs(t *testing.T) {
	const ceiling = 151
	w, _ := sweepTestWorlds(t)
	sys, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	players := w.JoinAll(sys, 400)
	opts := qoe.DefaultOptions()
	opts.Seed = 5
	run := func() qoe.Summary {
		sum, err := groupRun(w, sys, players, opts, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	first := run()
	allocs := testing.AllocsPerRun(3, func() {
		if again := run(); again != first {
			t.Fatalf("a warm groupRun summarises %+v, the first %+v", again, first)
		}
	})
	if allocs > ceiling {
		t.Fatalf("a warm groupRun allocates %.0f times, ceiling %d", allocs, ceiling)
	}
}
