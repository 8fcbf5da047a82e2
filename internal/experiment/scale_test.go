package experiment

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/fault"
	"cloudfog/internal/metrics"
	"cloudfog/internal/qoe"
	"cloudfog/internal/shard"
	"cloudfog/internal/sim"
)

// scaleTestConfig is a small world the sharded-run tests can afford to run
// dozens of times: enough supernodes that a kd partition has real interior
// boundaries, few enough players that a 60-second horizon runs in
// milliseconds.
func scaleTestConfig(seed int64, shards int) Config {
	cfg := Default(seed)
	cfg.Players = 400
	cfg.Supernodes = 25
	cfg.Datacenters = 3
	cfg.EdgeServers = 6
	cfg.Shards = shards
	return cfg
}

// TestFigscaleShardInvariance is the tentpole property test: for every seed,
// the scaling figure's bytes are identical at 1, 2, 4, and 8 shards — the
// parallel epoch-barrier path reproduces the serial path exactly. Odd seeds
// run the heartbeat detector with the overload ladder, even seeds the
// oracle, so both detection paths are covered.
func TestFigscaleShardInvariance(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	for seed := int64(1); seed <= 16; seed++ {
		o := RunOptions{Horizon: 60 * time.Second, ScaleEpoch: 15 * time.Second}
		if seed%2 == 1 {
			o.Detector = "phi"
			o.Overload = true
		}
		var want string
		for _, shards := range shardCounts {
			w, err := NewWorld(scaleTestConfig(seed, shards))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			res, fig, err := ScaleRun(w, o)
			if err != nil {
				t.Fatalf("seed %d shards %d: %v", seed, shards, err)
			}
			if res.Shards != shards {
				t.Fatalf("seed %d: result reports %d shards, want %d", seed, res.Shards, shards)
			}
			got := fmt.Sprintf("%#v", fig)
			if shards == shardCounts[0] {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: figscale output diverges at %d shards:\n  1 shard: %s\n  %d shards: %s",
					seed, shards, want, shards, got)
			}
		}
	}
}

// TestScaleRunGolden pins one ladder-on scaling run — title, every series
// point and the fog's geolocation draw count — to what the placement path
// produced when every probe drew all three of its lognormals and relief
// filtered its shortlist candidate by candidate (recorded at PR 20), at 1 and
// at 4 shards. The world fills its fog, so joins fall through to the cloud,
// kills orphan players onto backups and relief re-places evictees: a probe
// that qualifies differently, a shortlist that differs by one supernode or an
// extra Locate draw moves one of the three.
func TestScaleRunGolden(t *testing.T) {
	const (
		wantHash  = "201f17558ff5beaed836556d8be44dbda43dc3b84832b96b231a6785bd5fe556"
		wantDraws = 4722
	)
	for _, shards := range []int{1, 4} {
		cfg := scaleTestConfig(2026, shards)
		cfg.Players = 2000
		cfg.Supernodes = 125
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, fig, err := ScaleRun(w, RunOptions{
			Horizon: 60 * time.Second, ScaleEpoch: 15 * time.Second,
			Detector: "phi", Overload: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Moved == 0 || res.Repairs == 0 || res.CloudHops == 0 {
			t.Fatalf("shards %d: the run never reached relief, failover or the cloud fallback: %+v", shards, res)
		}
		if got := figureDigest(fig.Title, fig.Series); got != wantHash || res.FogDraws != wantDraws {
			t.Fatalf("shards %d: figure hash %s with %d fog draws, want %s with %d (%q, moved %d)",
				shards, got, res.FogDraws, wantHash, wantDraws, fig.Title, res.Moved)
		}
	}
}

// figureDigest hashes a figure's title and, series by series, its label and
// every point's X and Y bits: a golden over it moves with any output byte.
func figureDigest(title string, series []metrics.Series) string {
	h := sha256.New()
	h.Write([]byte(title))
	var b [8]byte
	for _, s := range series {
		h.Write([]byte(s.Label))
		for _, p := range s.Points {
			binary.BigEndian.PutUint64(b[:], math.Float64bits(p.X))
			h.Write(b[:])
			binary.BigEndian.PutUint64(b[:], math.Float64bits(p.Y))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestScaleRunProgress guards against a vacuous invariance pass: the chaos
// profile must actually kill, detect, and repair, and the node sample must
// actually produce continuity tallies.
func TestScaleRunProgress(t *testing.T) {
	w, err := NewWorld(scaleTestConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, fig, err := ScaleRun(w, RunOptions{
		Horizon: 60 * time.Second, ScaleEpoch: 15 * time.Second,
		Detector: "phi", Overload: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 || res.Detections == 0 || res.Repairs == 0 {
		t.Fatalf("chaos made no progress: %+v", res)
	}
	if res.QoEPlayers == 0 || res.MeanContinuity <= 0 {
		t.Fatalf("no segment-level tallies: %+v", res)
	}
	if len(res.Samples) != res.Epochs {
		t.Fatalf("got %d samples for %d epochs", len(res.Samples), res.Epochs)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("figscale has %d series, want 4", len(fig.Series))
	}
	// Orphan ledger: every kill's orphans either repaired, lapsed, or
	// pending at the horizon — and detection never exceeds kills.
	if res.Detections > res.Kills {
		t.Fatalf("%d detections for %d kills", res.Detections, res.Kills)
	}
}

// TestScaleRunMatchesBareInjector: the runner adds nothing to the fault state
// machine. An oracle-mode ScaleRun without the ladder (nothing but the
// injector moves the fog) reports the tallies one fault.Injector reports when
// it is run straight to the horizon over the same world, schedule and delay
// stream — the epoch-chunked RunUntil is one RunUntil.
func TestScaleRunMatchesBareInjector(t *testing.T) {
	const horizon = 60 * time.Second
	cfg := scaleTestConfig(3, 2)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := ScaleRun(w, RunOptions{Horizon: horizon, ScaleEpoch: 7 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	if w, err = NewWorld(cfg); err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	fog, _, err := w.newHealthFog(engine, HealthOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.JoinAll(fog, w.Cfg.Players)
	sched, err := fault.Compile(ScaleProfile(w, RunOptions{Horizon: horizon}), w.FaultTargets())
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.StartInjector(sched, engine, fog, w.Respawner(),
		sim.NewRand(sim.SplitSeed(cfg.Seed, -1)), nil, nil)
	engine.RunUntil(horizon)
	inj.Finish()

	got := [...]int64{res.Kills, res.Recoveries, res.Orphaned, res.Repairs, res.CloudHops, res.Lapsed, res.PendingEnd}
	want := [...]int64{inj.Killed(), inj.Recovered(), inj.Orphaned(), inj.Repaired(), inj.CloudHops(), inj.Lapsed(), inj.PendingEnd()}
	if got != want || res.MeanDetection != inj.MeanDetectionLatency() || res.FogDraws != fog.RandDraws() {
		t.Fatalf("kills, recoveries, orphaned, repairs, cloud hops, lapsed, pending:\n ScaleRun %v (mean detection %v, %d fog draws)\n injector %v (%v, %d)",
			got, res.MeanDetection, res.FogDraws, want, inj.MeanDetectionLatency(), fog.RandDraws())
	}
	if res.Kills == 0 || res.Orphaned == 0 || res.Orphaned != res.Repairs+res.Lapsed+res.PendingEnd {
		t.Fatalf("the run must orphan someone and account for them: %+v", res)
	}
}

// TestGroupRunShardedMatchesSerial asserts groupRun (the QoE figures'
// node-level parallelism) produces the same bytes however many workers share
// the nodes: Figure 9(a) at every shard count — including one that does not
// divide the node count and one above it — equals Shards=1, and a run over
// no served player is the empty summary at each.
func TestGroupRunShardedMatchesSerial(t *testing.T) {
	counts := []int{60, 120}
	horizon := 6 * time.Second
	var want string
	for _, shards := range []int{1, 2, 3, 4, 1000} {
		w, err := NewWorld(scaleTestConfig(11, shards))
		if err != nil {
			t.Fatal(err)
		}
		s, err := ContinuityVsPlayers(w, counts, horizon)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%#v", s)
		if shards == 1 {
			want = got
		}
		if got != want {
			t.Fatalf("groupRun at %d shards diverges from serial:\n serial: %s\n sharded: %s", shards, want, got)
		}
		cloud, err := w.NewCloud(w.Cfg.Datacenters)
		if err != nil {
			t.Fatal(err)
		}
		unserved := []*core.Player{{ID: 1}}
		for _, players := range [][]*core.Player{nil, unserved} {
			sum, err := groupRun(w, cloud, players, qoe.BasicOptions(), horizon)
			if err != nil || sum != (qoe.Summary{}) {
				t.Fatalf("groupRun over no served player at %d shards = %+v, %v; want the empty summary", shards, sum, err)
			}
		}
	}
}

// TestBackupRingFailoverAcrossWorkers kills one supernode that serves
// players and checks the runner carries them through kill, oracle detection
// and repair onto their backup ring, with the same samples, continuity and
// tallies whether one worker or two share the epoch's node simulations — a
// sample of them, or every node's (under -race, the widest overlap of workers
// with the engine goroutine that is moving the fog).
func TestBackupRingFailoverAcrossWorkers(t *testing.T) {
	horizon := 10 * time.Second
	epoch := 5 * time.Second
	run := func(shards int, target int64, budget int) shard.Result {
		w, err := NewWorld(scaleTestConfig(5, shards))
		if err != nil {
			t.Fatal(err)
		}
		clk := &shard.Clock{}
		fog, err := w.buildHealthFog(clk.Now, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		players := w.JoinAll(fog, w.Cfg.Players)
		sched := &fault.Schedule{Profile: &fault.Profile{Duration: fault.Dur(horizon)}, Events: []fault.Event{
			{At: time.Second, Op: fault.OpKill, Node: target, D: 2 * time.Second},
		}}
		qopts := qoe.DefaultOptions()
		qopts.Warmup = epoch / 5
		runner := shard.NewRunner(shard.Config{
			Shards: shards, Seed: w.Cfg.Seed, Horizon: horizon, Epoch: epoch,
			Width: w.Cfg.Core.Region.Width, Height: w.Cfg.Core.Region.Height,
			QoE: qopts, QoENodeBudget: budget,
		}, fog, players, sched, w.Respawner(), clk)
		res, err := runner.Run()
		if err != nil {
			t.Fatal(err)
		}
		w.LeaveAll(fog, players)
		return res
	}

	// Find a supernode whose kill strands players the backup ring repairs.
	w, err := NewWorld(scaleTestConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	var target int64 = -1
	var twoWorkers shard.Result
	for _, fn := range w.FaultTargets().Supernodes {
		if res := run(2, fn.ID, 16); res.Kills > 0 && res.Repairs > 0 {
			target, twoWorkers = fn.ID, res
			break
		}
	}
	if target < 0 {
		t.Fatal("no supernode's kill produced a repair; the runner or the backup ring is broken")
	}
	if twoWorkers.Detections == 0 {
		t.Fatalf("repairs without a detection: %+v", twoWorkers)
	}

	inv := func(r shard.Result) string {
		return fmt.Sprintf("%#v|%v|%d|%d|%d|%d", r.Samples, r.MeanContinuity,
			r.Kills, r.Detections, r.Repairs, r.Lapsed)
	}
	if oneWorker := run(1, target, 16); inv(oneWorker) != inv(twoWorkers) {
		t.Fatalf("outputs diverge across worker counts:\n 1: %s\n 2: %s",
			inv(oneWorker), inv(twoWorkers))
	}
	everyNode := run(1, target, 0)
	if everyNode.QoENodeRuns <= twoWorkers.QoENodeRuns {
		t.Fatalf("no budget ran %d node simulations, a budget of 16 ran %d", everyNode.QoENodeRuns, twoWorkers.QoENodeRuns)
	}
	if four := run(4, target, 0); inv(four) != inv(everyNode) {
		t.Fatalf("every node simulated, outputs diverge across worker counts:\n 1: %s\n 4: %s",
			inv(everyNode), inv(four))
	}
}

// TestScaleRunAllocBudget holds what the scale path allocates per player —
// all of it, freed or not — under a ceiling, so that the next structure the
// run builds and never reads shows up as a failure instead of as a profile
// somebody has to think of taking (make reach counts functions entered; a
// write-only field lives inside one that is). Measured on this world, bytes
// per player, NewWorld / one ScaleRun: 112 / 180 with a 96-byte Player (an
// attachment keeps no kind or update latency, a player no attach stamp) and
// the runner's packet tallies kept only for the players a node simulation
// sampled; 136 / 195 with a 120-byte Player held by value in one slice; 216 /
// 213 before that; 216 / 270 before the partition's copy of every player's
// position and the serving-node-before-relief entry per player went; 218 / 374
// before the Fog's map of every player, and the map of members on every
// serving node, became a counter and lists; 3 027 / 606 before the friend
// graph, a spec list for every serving supernode, a map of every player and a
// map of every fog-served player per epoch went. The ceilings sit about a
// quarter above the measurement; the same figures under the race detector
// are within 1 %.
func TestScaleRunAllocBudget(t *testing.T) {
	const (
		players          = 20_000
		worldBytesPerOne = 140
		runBytesPerOne   = 225
	)
	cfg := Default(2026)
	cfg.Players = players
	cfg.Supernodes = 1_250
	cfg.Shards = 2
	allocated := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.TotalAlloc
	}
	start := allocated()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := allocated()
	if _, _, err := ScaleRun(w, RunOptions{
		Horizon: 20 * time.Second, ScaleEpoch: 10 * time.Second,
		Detector: "phi", Overload: true,
	}); err != nil {
		t.Fatal(err)
	}
	ran := allocated()
	if got := (built - start) / players; got > worldBytesPerOne {
		t.Errorf("NewWorld allocated %d bytes per player, budget %d", got, worldBytesPerOne)
	}
	if got := (ran - built) / players; got > runBytesPerOne {
		t.Errorf("ScaleRun allocated %d bytes per player, budget %d", got, runBytesPerOne)
	}
}
