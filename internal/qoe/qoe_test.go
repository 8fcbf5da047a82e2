package qoe

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
	"cloudfog/internal/stream"
)

func mustGame(t *testing.T, id int) game.Game {
	t.Helper()
	g, err := game.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// noJitter returns options with deterministic segment sizes so tests can
// reason exactly.
func noJitter(o Options) Options {
	o.SizeJitterSigma = 0
	return o
}

func mixedPlayers(t *testing.T, n int, seed int64) []PlayerSpec {
	t.Helper()
	rng := sim.NewRand(seed)
	players := make([]PlayerSpec, n)
	for i := range players {
		players[i] = PlayerSpec{
			ID:           int64(i),
			Game:         mustGame(t, 1+rng.Intn(5)),
			Latency:      time.Duration(8+rng.Intn(18)) * time.Millisecond,
			InboundDelay: time.Duration(15+rng.Intn(15)) * time.Millisecond,
		}
	}
	return players
}

func TestSinglePlayerHealthyStream(t *testing.T) {
	opts := noJitter(BasicOptions())
	p := PlayerSpec{ID: 1, Game: mustGame(t, 4), Latency: 15 * time.Millisecond, InboundDelay: 20 * time.Millisecond}
	res, err := RunNode(opts, 25_000_000, []PlayerSpec{p}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	r := res[0]
	if r.Continuity != 1 || !r.Satisfied {
		t.Fatalf("healthy stream not fully continuous: %+v", r)
	}
	// Latency = inbound 20ms + tx (5000B at 25Mbps = 1.6ms) + prop 15ms.
	want := 20*time.Millisecond + 1600*time.Microsecond + 15*time.Millisecond
	if d := r.MeanLatency - want; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("mean latency = %v, want ~%v", r.MeanLatency, want)
	}
	if r.Stalls > 1 { // at most the startup prebuffer transition
		t.Fatalf("healthy stream stalled %d times", r.Stalls)
	}
	// ~30 segments/s for 25 metered seconds.
	if r.Segments < 700 || r.Segments > 910 {
		t.Fatalf("delivered %d segments, want ~750-900", r.Segments)
	}
}

func TestInfeasibleBudgetNeverSatisfied(t *testing.T) {
	opts := noJitter(BasicOptions())
	// Game 1 has a 30ms budget; inbound alone is 40ms.
	p := PlayerSpec{ID: 1, Game: mustGame(t, 1), Latency: 10 * time.Millisecond, InboundDelay: 40 * time.Millisecond}
	res, err := RunNode(opts, 25_000_000, []PlayerSpec{p}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Continuity != 0 || res[0].Satisfied {
		t.Fatalf("infeasible stream reported continuity %v", res[0].Continuity)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Summary {
		res, err := RunNode(DefaultOptions(), 20_000_000, mixedPlayers(t, 20, 7), 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return Summarize(res)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestOverloadCollapsesBasic(t *testing.T) {
	players := mixedPlayers(t, 25, 42)
	res, err := RunNode(BasicOptions(), 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(res)
	if s.SatisfiedFrac > 0.2 {
		t.Fatalf("basic FIFO at overload kept satisfaction %.2f", s.SatisfiedFrac)
	}
	// The bounded sender queue turns overload into loss plus bounded
	// delay: latency sits near the 100ms queue bound, and continuity
	// falls well below healthy levels.
	if lat := time.Duration(mean(res, func(r PlayerResult) float64 { return float64(r.MeanLatency) })); lat < 50*time.Millisecond {
		t.Fatalf("overloaded queue latency %v below the queue bound", lat)
	}
	if s.MeanContinuity > 0.5 {
		t.Fatalf("overload kept continuity %.2f", s.MeanContinuity)
	}
}

// TestAdaptationImprovesOverload mirrors Figure 10: at high players-per-
// supernode, enabling the encoding rate adaptation recovers continuity that
// CloudFog/B loses.
func TestAdaptationImprovesOverload(t *testing.T) {
	players := mixedPlayers(t, 25, 42)
	basic, err := RunNode(BasicOptions(), 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := BasicOptions()
	opts.Adaptation = true
	adapted, err := RunNode(opts, 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, a := Summarize(basic), Summarize(adapted)
	if a.MeanContinuity <= b.MeanContinuity+0.1 {
		t.Fatalf("adaptation gain too small: basic %.2f vs adapted %.2f",
			b.MeanContinuity, a.MeanContinuity)
	}
	if level := mean(adapted, func(r PlayerResult) float64 { return float64(r.FinalLevel) }); level >= 3.0 {
		t.Fatalf("adaptation did not lower encoding levels under overload: %.2f", level)
	}
}

// mean averages one quantity over a result set.
func mean(res []PlayerResult, of func(PlayerResult) float64) float64 {
	sum := 0.0
	for _, r := range res {
		sum += of(r)
	}
	return sum / float64(len(res))
}

// TestSchedulingImprovesOverload mirrors Figure 11: deadline-driven buffer
// scheduling raises satisfaction under load relative to FIFO.
func TestSchedulingImprovesOverload(t *testing.T) {
	players := mixedPlayers(t, 25, 42)
	basic, err := RunNode(BasicOptions(), 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := BasicOptions()
	opts.Scheduling = true
	sched, err := RunNode(opts, 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, s := Summarize(basic), Summarize(sched)
	if s.SatisfiedFrac <= b.SatisfiedFrac {
		t.Fatalf("scheduling did not improve satisfaction: basic %.2f vs sched %.2f",
			b.SatisfiedFrac, s.SatisfiedFrac)
	}
	if s.MeanContinuity <= b.MeanContinuity {
		t.Fatalf("scheduling did not improve continuity: basic %.2f vs sched %.2f",
			b.MeanContinuity, s.MeanContinuity)
	}
}

// TestFullStrategiesBeatBasicUnderLoad checks CloudFog/A vs CloudFog/B.
func TestFullStrategiesBeatBasicUnderLoad(t *testing.T) {
	players := mixedPlayers(t, 25, 42)
	basic, err := RunNode(BasicOptions(), 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunNode(DefaultOptions(), 20_000_000, players, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, f := Summarize(basic), Summarize(full)
	if f.SatisfiedFrac <= b.SatisfiedFrac {
		t.Fatalf("CloudFog/A (%.2f) did not beat CloudFog/B (%.2f)",
			f.SatisfiedFrac, b.SatisfiedFrac)
	}
}

func TestLightLoadAllVariantsAgree(t *testing.T) {
	// Below saturation, the strategies should not hurt.
	players := mixedPlayers(t, 5, 42)
	basic, _ := RunNode(noJitter(BasicOptions()), 25_000_000, players, 30*time.Second)
	full, _ := RunNode(noJitter(DefaultOptions()), 25_000_000, players, 30*time.Second)
	b, f := Summarize(basic), Summarize(full)
	if f.SatisfiedFrac < b.SatisfiedFrac-0.01 {
		t.Fatalf("strategies hurt light load: basic %.2f vs full %.2f",
			b.SatisfiedFrac, f.SatisfiedFrac)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewServerSim(DefaultOptions(), 0); err == nil {
		t.Fatal("zero uplink accepted")
	}
	bad := DefaultOptions()
	bad.Stream.PacketSize = 0
	if _, err := NewServerSim(bad, 1_000_000); err == nil {
		t.Fatal("invalid stream config accepted")
	}
	// The estimation stream keeps its cyclic player order only while every
	// phase is shorter than the interval, so a frame is the shortest one.
	short := DefaultOptions()
	short.EstimationInterval = short.Stream.SegmentDuration - 1
	if _, err := NewServerSim(short, 1_000_000); err == nil {
		t.Fatal("estimation interval shorter than a frame accepted")
	}
	short.EstimationInterval = short.Stream.SegmentDuration
	if _, err := NewServerSim(short, 1_000_000); err != nil {
		t.Fatalf("one-frame estimation interval refused: %v", err)
	}
	srv, err := NewServerSim(DefaultOptions(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	p := PlayerSpec{ID: 1, Game: mustGame(t, 3)}
	if err := srv.AddPlayer(p); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddPlayer(p); err == nil {
		t.Fatal("duplicate player accepted")
	}
	srv.Start()
	if err := srv.AddPlayer(PlayerSpec{ID: 2, Game: mustGame(t, 3)}); err == nil {
		t.Fatal("AddPlayer after Start accepted")
	}
}

func TestEmptyServerRuns(t *testing.T) {
	srv, err := NewServerSim(DefaultOptions(), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	srv.RunUntil(time.Second)
	if len(srv.Results()) != 0 {
		t.Fatal("empty server produced results")
	}
}

func TestSummarizeArithmetic(t *testing.T) {
	res := []PlayerResult{
		{Continuity: 1.0, Satisfied: true},
		{Continuity: 0.5, Satisfied: false},
	}
	s := Summarize(res)
	if s.Players != 2 || math.Abs(s.MeanContinuity-0.75) > 1e-12 ||
		math.Abs(s.SatisfiedFrac-0.5) > 1e-12 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if z := Summarize(nil); z.Players != 0 {
		t.Fatal("empty summarize wrong")
	}
}

func TestWarmupExcludesStartup(t *testing.T) {
	// A stream that only runs during warmup delivers zero metered segments.
	opts := noJitter(BasicOptions())
	opts.Warmup = time.Hour
	p := PlayerSpec{ID: 1, Game: mustGame(t, 4), Latency: 10 * time.Millisecond}
	res, err := RunNode(opts, 25_000_000, []PlayerSpec{p}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Segments != 0 {
		t.Fatalf("%d segments metered during warmup", res[0].Segments)
	}
	if res[0].Continuity != 1 {
		t.Fatal("unmetered stream should report continuity 1")
	}
}

func TestJitterPreservesMeanDemand(t *testing.T) {
	// With mean-one jitter, a stream near 50% utilization stays healthy.
	opts := DefaultOptions()
	p := PlayerSpec{ID: 1, Game: mustGame(t, 4), Latency: 10 * time.Millisecond, InboundDelay: 20 * time.Millisecond}
	res, err := RunNode(opts, 2_400_000, []PlayerSpec{p}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Continuity < 0.9 {
		t.Fatalf("mild jitter broke a half-utilized stream: continuity %v", res[0].Continuity)
	}
}

func TestObsSegmentLedgerBalances(t *testing.T) {
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Obs = obs.NodeStatsIn(reg)
	opts.Obs.Engine = obs.EngineStatsIn(reg)
	players := mixedPlayers(t, 12, 99)
	if _, err := RunNode(opts, 18_000_000, players, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	gen := snap.Counters["cloudfog_qoe_segments_generated_total"]
	del := snap.Counters["cloudfog_qoe_segments_delivered_total"]
	drop := snap.Counters["cloudfog_qoe_segments_dropped_total"]
	inflight := snap.Counters["cloudfog_qoe_segments_inflight_end_total"]
	if gen == 0 {
		t.Fatal("no segments generated")
	}
	if gen != del+drop+inflight {
		t.Fatalf("ledger does not balance: %d generated vs %d delivered + %d dropped + %d in flight",
			gen, del, drop, inflight)
	}
	onTime := snap.Counters["cloudfog_qoe_segments_ontime_total"]
	late := snap.Counters["cloudfog_qoe_segments_late_total"]
	if onTime+late != del {
		t.Fatalf("on-time (%d) + late (%d) != delivered (%d)", onTime, late, del)
	}
	if snap.Counters["cloudfog_engine_events_executed_total"] == 0 {
		t.Fatal("engine executed no events")
	}
}

func TestObsDoesNotChangeResults(t *testing.T) {
	// Instrumentation is observe-only: the same run with and without a
	// NodeStats bundle must produce identical player results.
	players := mixedPlayers(t, 8, 7)
	plain, err := RunNode(DefaultOptions(), 18_000_000, players, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Obs = obs.NodeStatsIn(obs.NewRegistry())
	observed, err := RunNode(opts, 18_000_000, players, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observability changed results:\n%+v\n%+v", plain, observed)
	}
}

func TestObsFoldsOnce(t *testing.T) {
	// Calling Results twice must not double-count the per-run tallies.
	reg := obs.NewRegistry()
	opts := noJitter(DefaultOptions())
	opts.Obs = obs.NodeStatsIn(reg)
	opts.Obs.Engine = obs.EngineStatsIn(reg)
	// 50 ms paths: every player has a segment or two past the horizon.
	players := mixedPlayers(t, 6, 5)
	for i := range players {
		players[i].Latency += 40 * time.Millisecond
	}
	srv := startSim(t, opts, 25_000_000, players)
	srv.RunUntil(10 * time.Second)
	srv.Results()
	first := reg.Snapshot().Counters
	srv.Results()
	second := reg.Snapshot().Counters
	if first["cloudfog_qoe_segments_generated_total"] == 0 || !reflect.DeepEqual(first, second) {
		t.Fatalf("per-run tallies folded more than once:\n%v\n%v", first, second)
	}
	gen, del, drop, inflight := srv.Lifecycle()
	if gen != del+drop+inflight {
		t.Fatalf("Lifecycle does not balance: %d vs %d+%d+%d", gen, del, drop, inflight)
	}
	// The event counters are what an engine would have counted: everything
	// scheduled and not yet executed is still pending at the horizon — one
	// generation and one estimate per player, the uplink's transmission if
	// one is on the wire, and the arrivals past the horizon.
	pending := int64(2 * len(players))
	if srv.busy {
		pending++
	}
	for _, ss := range srv.sessions {
		if len(ss.inflight) == 0 {
			t.Fatalf("player %d has nothing past the horizon", ss.spec.ID)
		}
		pending += int64(len(ss.inflight))
	}
	scheduled := first["cloudfog_engine_events_scheduled_total"]
	executed := first["cloudfog_engine_events_executed_total"]
	if executed == 0 || scheduled-executed != pending {
		t.Fatalf("scheduled %d - executed %d != %d pending", scheduled, executed, pending)
	}
}

// TestPoolMatchesRunNode pins the pooled-run equivalence contract: a Pool
// run is bit-identical to a fresh simulation (RunNode's own steps, hand-driven
// so the generator's draw count can be read), even back-to-back across nodes
// that differ in seed, player count (growing and shrinking, so sessions,
// segments and Eq. 13 estimators are recycled under other players' stream
// indices), strategies, propagation window and level caps — on a pool whose
// one generator is re-seeded per run — and the draws the pool counts are the
// draws the fresh generators made.
func TestPoolMatchesRunNode(t *testing.T) {
	pool := NewPool()
	shortWindow := DefaultOptions()
	shortWindow.Sched.PropWindow = 3
	cases := []struct {
		opts    Options
		uplink  int64
		players int
		mix     int64 // seeds the player set
		seed    int64 // seeds the run
		capped  bool
	}{
		{DefaultOptions(), 120_000_000, 14, 11, 1011, false},
		{BasicOptions(), 40_000_000, 25, 12, 1012, false},
		{DefaultOptions(), 40_000_000, 25, 12, 1012, false}, // same load, strategies on
		{BasicOptions(), 200_000_000, 3, 13, 1013, false},
		{DefaultOptions(), 120_000_000, 14, 11, 1011, false}, // repeat of case 0 on a warm pool
		{DefaultOptions(), 120_000_000, 14, 11, 77, false},   // same players, another seed
		{DefaultOptions(), 30_000_000, 40, 15, 1015, true},   // the pool's peak, level caps on
		{shortWindow, 30_000_000, 9, 16, 1016, false},        // shrinks, Eq. 13 window changes
		{DefaultOptions(), 30_000_000, 40, 15, 1015, true},   // grows back
		{BasicOptions(), 8_000_000, 1, 17, 1017, false},
	}
	var draws uint64
	for i, c := range cases {
		opts := c.opts
		opts.Seed = c.seed
		players := mixedPlayers(t, c.players, c.mix)
		if c.capped {
			for k := range players {
				players[k].LevelCap = k % 4 // every fourth stays uncapped
			}
		}
		fresh := startSim(t, opts, c.uplink, players)
		fresh.RunUntil(8 * time.Second)
		want := fresh.Results()
		draws += fresh.draws()
		got, err := pool.RunNode(opts, c.uplink, players, 8*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("case %d: pooled results differ\nwant %+v\ngot  %+v", i, want, got)
		}
		if pool.Draws() != draws {
			t.Fatalf("case %d: pool counts %d draws, fresh generators made %d", i, pool.Draws(), draws)
		}
	}
}

// TestSizeJitterDrawsInOrder holds the block-ahead frame-size draw to drawing
// per segment: a one-player node's generated sizes are its nominal size times
// one LogNormal of a fresh generator per segment, in order, for runs that end
// one short of a block, on it, one past it and three blocks in. Each runs
// fresh and on a pool whose last run left its block part used, and the draws
// counted are the segments generated — none at sigma 0.
func TestSizeJitterDrawsInOrder(t *testing.T) {
	g := mustGame(t, 4)
	player := []PlayerSpec{{ID: 1, Game: g, Latency: 15 * time.Millisecond, InboundDelay: 20 * time.Millisecond}}
	for _, sigma := range []float64{0.3, 0} {
		for _, n := range []int{127, 128, 129, 389} {
			opts := BasicOptions()
			opts.SizeJitterSigma = sigma
			opts.Seed = 500 + int64(n)
			var sizes []int64
			opts.Obs = obs.NodeStatsIn(obs.NewRegistry())
			opts.Obs.Sink = func(ev obs.Event) {
				if ev.Kind == obs.EventSegmentGenerated {
					sizes = append(sizes, ev.A)
				}
			}
			// Generations fire at 0, 1, ..., n-1 frames.
			horizon := time.Duration(n-1) * opts.Stream.SegmentDuration

			ref := sim.NewRand(opts.Seed)
			nominal := opts.Stream.SegmentBytes(g.Quality().Bitrate)
			want := make([]int64, n)
			for i := range want {
				bytes := nominal
				if sigma > 0 {
					bytes = max(int(float64(nominal)*ref.LogNormal(-sigma*sigma/2, sigma)), 1)
				}
				want[i] = int64(bytes)
			}
			wantDraws := uint64(0)
			if sigma > 0 {
				wantDraws = uint64(n)
			}

			srv := startSim(t, opts, 25_000_000, player)
			srv.RunUntil(horizon)
			if !reflect.DeepEqual(sizes, want) {
				t.Fatalf("sigma %g, %d segments, fresh: sizes differ from one draw per segment", sigma, n)
			}
			if srv.draws() != wantDraws {
				t.Fatalf("sigma %g, %d segments, fresh: %d draws counted, want %d", sigma, n, srv.draws(), wantDraws)
			}

			pool := NewPool()
			warm := BasicOptions()
			warm.Seed = 9
			if _, err := pool.RunNode(warm, 25_000_000, player, 49*opts.Stream.SegmentDuration); err != nil {
				t.Fatal(err)
			}
			before := pool.Draws()
			if before != 50 {
				t.Fatalf("the warm-up run consumed %d draws, want 50", before)
			}
			sizes = sizes[:0]
			if _, err := pool.RunNode(opts, 25_000_000, player, horizon); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sizes, want) {
				t.Fatalf("sigma %g, %d segments, pooled: sizes differ from one draw per segment", sigma, n)
			}
			if got := pool.Draws() - before; got != wantDraws {
				t.Fatalf("sigma %g, %d segments, pooled: %d draws counted, want %d", sigma, n, got, wantDraws)
			}
		}
	}
}

// TestEachNodeVisitsEveryIndexOnce: at any worker count — one, a divisor of
// n, a non-divisor, n itself, more than n — every index is visited exactly
// once, always by the same worker's pool, no pool serves two goroutines at a
// time (the race detector's to see: pools' draw counters are plain fields),
// and when indices fail the error returned is the lowest-numbered failing
// worker's first, with that worker stopped there.
func TestEachNodeVisitsEveryIndexOnce(t *testing.T) {
	const n = 12
	for _, workers := range []int{1, 2, 3, 5, n, n + 5} {
		pools := make([]*Pool, workers)
		for i := range pools {
			pools[i] = NewPool()
		}
		visits := make([]int, n) // slot i written by whoever runs i, as callers do
		err := EachNode(pools, n, func(p *Pool, i int) error {
			visits[i]++
			p.draws++
			if p != pools[i%min(workers, n)] {
				t.Errorf("%d workers: index %d ran on another worker's pool", workers, i)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("%d workers: index %d visited %d times", workers, i, v)
			}
		}
		var draws uint64
		for _, p := range pools {
			draws += p.Draws()
		}
		if draws != n {
			t.Fatalf("%d workers: pools counted %d visits, want %d", workers, draws, n)
		}

		// Indices 4 and up fail. The error is the first one of the
		// lowest-numbered worker that has any, and that worker ran nothing
		// after it.
		clear(visits)
		err = EachNode(pools, n, func(_ *Pool, i int) error {
			visits[i]++
			if i >= 4 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		w, want := min(workers, n), -1
		for k := 0; k < w && want < 0; k++ {
			for i := k; i < n && want < 0; i += w {
				if i >= 4 {
					want = i
				}
			}
		}
		if err == nil || err.Error() != fmt.Sprintf("index %d", want) {
			t.Fatalf("%d workers: error %v, want index %d", workers, err, want)
		}
		for i := want + w; i < n; i += w {
			if visits[i] != 0 {
				t.Fatalf("%d workers: index %d ran after its worker failed at %d", workers, i, want)
			}
		}
	}
	if err := EachNode(nil, 0, nil); err != nil {
		t.Fatalf("no work: %v", err)
	}
}

// TestPoolAllocFloor records the warm pool's floor: a run on a pool that has
// seen this load allocates the sim struct and nothing else, whatever the
// player count — sessions, segments, estimators, the session index and the
// generator (re-seeded, not rebuilt: a run measured 4 when it was) are the
// pool's.
func TestPoolAllocFloor(t *testing.T) {
	pool := NewPool()
	opts := DefaultOptions()
	opts.Seed = 42
	players := mixedPlayers(t, 30, 31)
	warm := func() {
		if _, err := pool.RunNode(opts, 120_000_000, players, 4*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	warm()
	allocs := testing.AllocsPerRun(5, warm)
	// A fresh RunNode costs >100 allocations for this load; a warm pool run
	// measures 1.
	const floor = 2
	if allocs > floor {
		t.Fatalf("warm pool run allocates %.0f, want <= %d", allocs, floor)
	}
}

// TestRunNodeAllocFloor holds the unpooled floor the deletion contract
// (ROADMAP item 5) used to read by hand off BenchmarkQoENode: ten players on
// one node for ten seconds, fresh sessions each run.
func TestRunNodeAllocFloor(t *testing.T) {
	g, err := game.ByID(4)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]PlayerSpec, 10)
	for i := range specs {
		specs[i] = PlayerSpec{
			ID: int64(i), Game: g,
			Latency:      20 * time.Millisecond,
			InboundDelay: 20 * time.Millisecond,
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunNode(DefaultOptions(), 20_000_000, specs, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	})
	const floor = 83
	if allocs > floor {
		t.Fatalf("RunNode allocates %.0f, want <= %d", allocs, floor)
	}
}

// TestStreamInitPicksTheLevelAddPlayerPicked: for every game and a cap of
// none, the bottom rung, one below the game's level, the game's level and one
// past the ladder, Init starts where AddPlayer started a player before the
// serving state was a type of its own — the game's level, lowered to a
// positive cap below it — and a player added to a node starts there too. The
// controller never adapts above that level, and a step down moves the
// segment size with it.
func TestStreamInitPicksTheLevelAddPlayerPicked(t *testing.T) {
	opts := DefaultOptions()
	for _, g := range game.Games() {
		for _, levelCap := range []int{0, 1, g.StartLevel - 1, g.StartLevel, 9} {
			want := g.Quality()
			if levelCap > 0 && levelCap < want.Level {
				want = game.MustLevelAt(levelCap)
			}
			var s Stream
			s.Init(opts.Stream, opts.Adapt, 1, g, levelCap)
			var seg stream.Segment
			s.Encode(&seg, 0, 0)
			if s.Level() != want || seg.Bytes != opts.Stream.SegmentBytes(want.Bitrate) {
				t.Errorf("game %d, cap %d: level %d, %d-byte segments; want level %d, %d bytes",
					g.ID, levelCap, s.Level().Level, seg.Bytes, want.Level, opts.Stream.SegmentBytes(want.Bitrate))
			}
			srv, err := NewServerSim(opts, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.AddPlayer(PlayerSpec{ID: 1, Game: g, LevelCap: levelCap}); err != nil {
				t.Fatal(err)
			}
			if got := srv.sessions[0].Level(); got != want {
				t.Errorf("game %d, cap %d: AddPlayer starts at level %d, want %d", g.ID, levelCap, got.Level, want.Level)
			}

			for range 10 * opts.Adapt.UpStreak {
				s.Observe(100)
			}
			if s.Level() != want {
				t.Errorf("game %d, cap %d: adapted up to level %d past its start %d", g.ID, levelCap, s.Level().Level, want.Level)
			}
			if want.Level == 1 {
				continue
			}
			for range opts.Adapt.DownStreak {
				s.Observe(0)
			}
			down := game.MustLevelAt(want.Level - 1)
			if s.Encode(&seg, 0, 0); s.Level() != down || seg.Bytes != opts.Stream.SegmentBytes(down.Bitrate) {
				t.Errorf("game %d, cap %d: after a step down, level %d with %d-byte segments; want level %d",
					g.ID, levelCap, s.Level().Level, seg.Bytes, down.Level)
			}
		}
	}
}
