package fault

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
)

func testTargets(n int) Targets {
	t := Targets{Supernodes: make([]Node, n)}
	for i := range t.Supernodes {
		t.Supernodes[i] = Node{ID: int64(i + 1), X: float64(i * 10), Y: 50}
	}
	return t
}

func testProfile() *Profile {
	return &Profile{
		Name:     "test",
		Seed:     99,
		Duration: Dur(time.Hour),
		Specs: []Spec{
			{Kind: KindCrash, MTTF: Dur(20 * time.Minute), MTTR: Dur(4 * time.Minute), Detect: Dur(10 * time.Second), TargetFrac: 0.5},
			{Kind: KindLoss, MeanGood: Dur(5 * time.Minute), MeanBad: Dur(30 * time.Second), LossFrac: 0.3},
			{Kind: KindLatency, MeanGood: Dur(8 * time.Minute), MeanBad: Dur(20 * time.Second), Extra: Dur(80 * time.Millisecond)},
			{Kind: KindBandwidth, Start: Dur(10 * time.Minute), End: Dur(20 * time.Minute), Factor: 0.4},
			{Kind: KindPartition, Start: Dur(30 * time.Minute), End: Dur(40 * time.Minute), Region: &Rect{X0: 0, Y0: 0, X1: 45, Y1: 100}},
		},
	}
}

// The determinism contract: same (profile, targets) ⇒ the bit-identical
// event list and impairment windows. The schedule IS the injected-event log.
func TestCompileDeterministic(t *testing.T) {
	tg := testTargets(16)
	a, err := Compile(testProfile(), tg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(testProfile(), tg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same profile compiled to different event logs")
	}
	if !reflect.DeepEqual(a.lossW, b.lossW) || !reflect.DeepEqual(a.latW, b.latW) || !reflect.DeepEqual(a.bwW, b.bwW) {
		t.Fatal("same profile compiled to different impairment windows")
	}
	if len(a.Events) == 0 {
		t.Fatal("profile compiled to an empty schedule")
	}
	c, err := Compile(&Profile{Name: "test", Seed: 100, Duration: Dur(time.Hour), Specs: testProfile().Specs}, tg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds compiled to identical event logs (vanishingly unlikely)")
	}
}

func TestCompiledEventsSortedAndBounded(t *testing.T) {
	s, err := Compile(testProfile(), testTargets(16))
	if err != nil {
		t.Fatal(err)
	}
	horizon := time.Hour
	for i, ev := range s.Events {
		if i > 0 && ev.At < s.Events[i-1].At {
			t.Fatalf("event %d at %v precedes event %d at %v", i, ev.At, i-1, s.Events[i-1].At)
		}
		// Only recoveries may land past the horizon (the injector never
		// reaches them); everything else must start inside it.
		if ev.Op != OpRecover && (ev.At < 0 || ev.At > horizon) {
			t.Fatalf("event %v at %v outside [0, %v]", ev.Op, ev.At, horizon)
		}
	}
}

func TestImpairmentLookups(t *testing.T) {
	s, err := Compile(testProfile(), testTargets(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.lossW) == 0 {
		t.Fatal("loss spec produced no bad windows")
	}
	for i, w := range s.lossW {
		if w.to <= w.from {
			t.Fatalf("window %d degenerate: [%v, %v)", i, w.from, w.to)
		}
		if i > 0 && w.from < s.lossW[i-1].to {
			t.Fatalf("windows %d and %d overlap", i-1, i)
		}
		mid := w.from + (w.to-w.from)/2
		if got := s.LossFrac(mid); got != 0.3 {
			t.Fatalf("LossFrac inside window = %v, want 0.3", got)
		}
		if got := s.LossFrac(w.to); got != 0 && !insideAny(s.lossW, w.to) {
			t.Fatalf("LossFrac at window end = %v, want 0", got)
		}
	}
	if got := s.LossFrac(-time.Second); got != 0 {
		t.Fatalf("LossFrac before start = %v", got)
	}
	if got := s.BandwidthScale(15 * time.Minute); got != 0.4 {
		t.Fatalf("BandwidthScale inside collapse = %v, want 0.4", got)
	}
	if got := s.BandwidthScale(25 * time.Minute); got != 1 {
		t.Fatalf("BandwidthScale outside collapse = %v, want 1", got)
	}
}

func insideAny(ws []window, at time.Duration) bool {
	for _, w := range ws {
		if at >= w.from && at < w.to {
			return true
		}
	}
	return false
}

func TestProfileJSONRoundTrip(t *testing.T) {
	p := testProfile()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the profile:\n%+v\n%+v", p, q)
	}
	a, err := Compile(p, testTargets(8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(q, testTargets(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("round-tripped profile compiled differently")
	}
}

func TestProfileValidation(t *testing.T) {
	bad := []Profile{
		{Duration: Dur(0)},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: "nope"}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindCrash}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindCrash, MTTF: Dur(time.Minute), Period: Dur(time.Minute)}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindLoss, MeanGood: Dur(time.Minute)}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindLoss, MeanGood: Dur(time.Minute), MeanBad: Dur(time.Second), LossFrac: 1.5}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindBandwidth, Factor: 0}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindBandwidth, Factor: 0.5, Start: Dur(time.Minute), End: Dur(time.Second)}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindPartition}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: "storm"}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: "cloud", Factor: 0.5}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: "coord_partition"}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: "distress", TargetFrac: 0.5}}},
		{Duration: Dur(time.Hour), Specs: []Spec{{Kind: KindBandwidth, Factor: 0.5, TargetFrac: 0.3}}},
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("profile %d accepted", i)
		}
	}
	if err := bad[len(bad)-1].Validate(); err == nil || !strings.Contains(err.Error(), "target_frac") {
		t.Errorf("bandwidth with target_frac: error %v does not name target_frac", err)
	}
	if err := testProfile().Validate(); err != nil {
		t.Errorf("good profile rejected: %v", err)
	}
}

// buildFaultFog mirrors the core package's test fog: one datacenter, a line
// of supernodes, players joined nearby.
func buildFaultFog(t *testing.T, nSN, nPlayers int, stats *obs.AssignStats) (*core.Fog, []*core.Player, Targets) {
	t.Helper()
	cfg := core.DefaultConfig(1)
	cfg.Locator.ErrorSigma = 0
	// Tame the latency model's pair noise so nearby probes qualify, the
	// same calibration the core package's own tests use.
	m := cfg.Latency.(trace.Model)
	m.NoiseMedian = 2 * time.Millisecond
	cfg.Latency = m
	cfg.Obs = stats
	center := cfg.Region.Center()
	dc := core.NewDatacenter(2_000_000, geo.Point{X: center.X + 1200, Y: center.Y}, cfg.DCEgress)
	sns := make([]*core.Supernode, nSN)
	tg := Targets{Supernodes: make([]Node, nSN)}
	for i := range sns {
		pos := geo.Point{X: center.X + float64(i*15), Y: center.Y + 10}
		sns[i] = core.NewSupernode(1_000_000+int64(i), pos, 8, 8*cfg.UplinkPerSlot)
		tg.Supernodes[i] = Node{ID: sns[i].ID, X: pos.X, Y: pos.Y}
	}
	f, err := core.BuildFog(cfg, []*core.Datacenter{dc}, sns, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	g := mustGame(t)
	players := make([]*core.Player, nPlayers)
	for i := range players {
		pos := geo.Point{X: center.X + float64(i%40), Y: center.Y + float64(i%25)}
		players[i] = &core.Player{ID: int64(i + 1), Pos: pos, Game: &g, Downlink: 20_000_000}
		f.Join(players[i])
	}
	return f, players, tg
}

func mustGame(t *testing.T) game.Game {
	t.Helper()
	g, err := game.ByID(5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// newAssignStats is a standalone (registry-free) assignment bundle.
func newAssignStats() *obs.AssignStats {
	return &obs.AssignStats{
		JoinsFog:           new(obs.Counter),
		JoinsCloud:         new(obs.Counter),
		FailoverBackupHits: new(obs.Counter),
		FailoverReassigns:  new(obs.Counter),
	}
}

// TestInjectorOrphanBalance runs a crash-heavy schedule against a real fog
// and checks the orphan ledger: every player orphaned by a kill is either
// repaired through the assignment protocol (backup hit or rerun), lapsed, or
// still pending when the horizon hit — whether the oracle's draw or a
// heartbeat monitor times the repairs — and the injector's own repair tally
// is the assignment protocol's.
func TestInjectorOrphanBalance(t *testing.T) {
	for _, mode := range []health.Mode{health.ModeOracle, health.ModeTimeout} {
		t.Run(mode.String(), func(t *testing.T) { orphanBalance(t, mode) })
	}
}

func orphanBalance(t *testing.T, mode health.Mode) {
	assign := newAssignStats()
	f, players, tg := buildFaultFog(t, 20, 100, assign)
	p := &Profile{
		Name:     "balance",
		Seed:     7,
		Duration: Dur(time.Hour),
		Specs: []Spec{
			{Kind: KindCrash, MTTF: Dur(10 * time.Minute), MTTR: Dur(3 * time.Minute), Detect: Dur(30 * time.Second)},
		},
	}
	sched, err := Compile(p, tg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	stats := obs.FaultStatsIn(obs.NewRegistry())
	specs := make(map[int64]snSpec, len(tg.Supernodes))
	for _, sn := range f.Supernodes() {
		specs[sn.ID] = snSpec{pos: sn.Pos, capacity: sn.Capacity, uplink: sn.Uplink}
	}
	var mon *health.Monitor
	if mode != health.ModeOracle {
		mon = health.NewMonitor(engine, health.DetectorConfig{Mode: mode}, nil, nil)
	}
	inj := StartInjector(sched, engine, f, func(id int64) *core.Supernode {
		s := specs[id]
		return core.NewSupernode(id, s.pos, s.capacity, s.uplink)
	}, sim.NewRand(42), stats, mon)
	engine.RunUntil(time.Hour)
	inj.Finish()

	if inj.Killed() == 0 {
		t.Fatal("schedule killed nothing")
	}
	if stats.Kills.Load() != inj.Killed() {
		t.Fatalf("stats kills %d != tally %d", stats.Kills.Load(), inj.Killed())
	}
	repaired := assign.FailoverBackupHits.Load() + assign.FailoverReassigns.Load()
	ledger := repaired + inj.Lapsed() + inj.PendingEnd()
	if inj.Orphaned() != ledger {
		t.Fatalf("orphan ledger: orphaned=%d but backup+rerun=%d lapsed=%d pending=%d",
			inj.Orphaned(), repaired, inj.Lapsed(), inj.PendingEnd())
	}
	if inj.Repaired() != repaired || inj.CloudHops() > inj.Repaired() {
		t.Fatalf("injector counts %d repairs (%d of them off the fog), the assignment protocol %d",
			inj.Repaired(), inj.CloudHops(), repaired)
	}
	if assign.FailoverBackupHits.Load() == 0 {
		t.Fatal("no orphan survived via a recorded backup")
	}
	// Every online player is served except orphans whose repair is still
	// pending at the horizon (the cloud has not detected their loss yet).
	unserved := int64(0)
	for _, p := range players {
		if p.Online && !p.Attached.Served() {
			unserved++
		}
	}
	if unserved > inj.PendingEnd() {
		t.Fatalf("%d online players unserved but only %d repairs pending", unserved, inj.PendingEnd())
	}
}

// TestInjectorNilSchedule: a fault-free run is an injector with no schedule.
// StartInjector still tracks the fleet and starts the monitor — heartbeats
// flow and nothing is suspected — and Finish folds a ledger of zeros.
func TestInjectorNilSchedule(t *testing.T) {
	f, _, _ := buildFaultFog(t, 6, 30, nil)
	engine := sim.New()
	reg := obs.NewRegistry()
	stats, hs := obs.FaultStatsIn(reg), obs.HealthStatsIn(reg)
	inj := StartInjector(nil, engine, f, nil, sim.NewRand(1), stats,
		health.NewMonitor(engine, health.DetectorConfig{Mode: health.ModePhi}, nil, hs))
	engine.RunUntil(time.Minute)
	inj.Finish()
	if sent := hs.HeartbeatsSent.Load(); sent < 6*30 {
		t.Fatalf("%d heartbeats from 6 supernodes in a minute: the fleet is not tracked", sent)
	}
	if inj.FalsePositives() != 0 || hs.KillsObserved.Load() != 0 || hs.DetectPending.Load() != 0 {
		t.Fatalf("a fault-free run suspected %d nodes, observed %d kills, left %d undetected",
			inj.FalsePositives(), hs.KillsObserved.Load(), hs.DetectPending.Load())
	}
	for name, n := range map[string]int64{
		"kills": stats.Kills.Load(), "recoveries": stats.Recoveries.Load(), "orphaned": stats.Orphaned.Load(),
		"lapsed": stats.Lapsed.Load(), "pending": stats.PendingEnd.Load(), "windows": stats.LinkWindows.Load(),
		"repaired": inj.Repaired(), "detected": inj.Detected(),
	} {
		if n != 0 {
			t.Errorf("fault-free ledger: %s = %d", name, n)
		}
	}
}

type snSpec struct {
	pos      geo.Point
	capacity int
	uplink   int64
}

// TestInjectorDeterministic pins that two injector runs with the same seeds
// produce identical tallies and identical fog states.
func TestInjectorDeterministic(t *testing.T) {
	run := func() (int64, int64, int64, int) {
		f, _, tg := buildFaultFog(t, 12, 120, nil)
		p := &Profile{Seed: 3, Duration: Dur(30 * time.Minute), Specs: []Spec{
			{Kind: KindCrash, Period: Dur(2 * time.Minute), MTTR: Dur(5 * time.Minute), Detect: Dur(20 * time.Second)},
		}}
		sched, err := Compile(p, tg)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.New()
		specs := make(map[int64]snSpec)
		for _, sn := range f.Supernodes() {
			specs[sn.ID] = snSpec{pos: sn.Pos, capacity: sn.Capacity, uplink: sn.Uplink}
		}
		inj := StartInjector(sched, engine, f, func(id int64) *core.Supernode {
			s := specs[id]
			return core.NewSupernode(id, s.pos, s.capacity, s.uplink)
		}, sim.NewRand(11), nil, nil)
		engine.RunUntil(30 * time.Minute)
		inj.Finish()
		return inj.Killed(), inj.Orphaned(), inj.Recovered(), len(f.Supernodes())
	}
	k1, o1, r1, n1 := run()
	k2, o2, r2, n2 := run()
	if k1 != k2 || o1 != o2 || r1 != r2 || n1 != n2 {
		t.Fatalf("injector not deterministic: (%d %d %d %d) vs (%d %d %d %d)",
			k1, o1, r1, n1, k2, o2, r2, n2)
	}
}

// TestRunWallRepliesSchedule drives the wall-clock interpreter with a tiny
// compressed profile and checks the hooks see the same kill/recover sequence
// the schedule encodes.
func TestRunWallReplaysSchedule(t *testing.T) {
	p := &Profile{
		Seed:     5,
		Duration: Dur(300 * time.Millisecond),
		Specs: []Spec{
			{Kind: KindCrash, Period: Dur(60 * time.Millisecond), MTTR: Dur(40 * time.Millisecond)},
		},
	}
	tg := testTargets(4)
	sched, err := Compile(p, tg)
	if err != nil {
		t.Fatal(err)
	}
	var kills, recovers []int64
	stats := obs.FaultStatsIn(obs.NewRegistry())
	err = RunWall(context.Background(), sched, WallHooks{
		Kill:    func(id int64) { kills = append(kills, id) },
		Recover: func(id int64) bool { recovers = append(recovers, id); return true },
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	var wantKills []int64
	for _, ev := range sched.Events {
		if ev.Op == OpKill && ev.At < p.Duration.Duration {
			wantKills = append(wantKills, ev.Node)
		}
	}
	if !reflect.DeepEqual(kills, wantKills) {
		t.Fatalf("wall kills %v != schedule kills %v", kills, wantKills)
	}
	if len(recovers) == 0 {
		t.Fatal("no recoveries replayed")
	}
	if stats.Kills.Load() != int64(len(kills)) {
		t.Fatalf("stats kills %d != %d", stats.Kills.Load(), len(kills))
	}
}

// TestRunWallMatchesInjector: a period-mode crash whose downtime outlasts its
// period aims kills at a node that is still down, beside loss, latency and
// bandwidth windows. Replaying the one compiled schedule through the sim
// injector and through RunWall applies the same kills and recoveries and
// counts the same link windows, the bandwidth window included.
func TestRunWallMatchesInjector(t *testing.T) {
	ms := time.Millisecond
	f, _, tg := buildFaultFog(t, 1, 10, nil)
	p := &Profile{Seed: 3, Duration: Dur(100 * ms), Specs: []Spec{
		{Kind: KindCrash, Period: Dur(10 * ms), MTTR: Dur(35 * ms)},
		{Kind: KindLoss, MeanGood: Dur(15 * ms), MeanBad: Dur(5 * ms), LossFrac: 0.2},
		{Kind: KindLatency, MeanGood: Dur(20 * ms), MeanBad: Dur(5 * ms), Extra: Dur(ms)},
		{Kind: KindBandwidth, Start: Dur(20 * ms), End: Dur(60 * ms), Factor: 0.5},
	}}
	sched, err := Compile(p, tg)
	if err != nil {
		t.Fatal(err)
	}
	sn := f.Supernodes()[0]
	engine := sim.New()
	simStats := obs.FaultStatsIn(obs.NewRegistry())
	inj := StartInjector(sched, engine, f, func(id int64) *core.Supernode {
		return core.NewSupernode(id, sn.Pos, sn.Capacity, sn.Uplink)
	}, sim.NewRand(1), simStats, nil)
	engine.RunUntil(p.Duration.Duration)
	inj.Finish()

	stats := obs.FaultStatsIn(obs.NewRegistry())
	var kills, recovers int64
	err = RunWall(context.Background(), sched, WallHooks{
		Kill:    func(int64) { kills++ },
		Recover: func(int64) bool { recovers++; return true },
		Link:    func(time.Duration, float64) {},
	}, stats)
	if err != nil {
		t.Fatal(err)
	}
	if inj.Killed() == 0 || inj.Killed() == int64(len(sched.Events)/2) {
		t.Fatalf("injector applied %d kills: the schedule does not overlap its crashes", inj.Killed())
	}
	if len(sched.lossW) == 0 || len(sched.latW) == 0 {
		t.Fatalf("%d loss and %d latency windows: the profile opens none of a kind", len(sched.lossW), len(sched.latW))
	}
	if kills != inj.Killed() || stats.Kills.Load() != inj.Killed() ||
		recovers != inj.Recovered() || stats.Recoveries.Load() != inj.Recovered() {
		t.Fatalf("RunWall: %d kill hooks (%d counted), %d recover hooks (%d counted); injector: %d kills, %d recoveries",
			kills, stats.Kills.Load(), recovers, stats.Recoveries.Load(), inj.Killed(), inj.Recovered())
	}
	want := int64(len(sched.lossW) + len(sched.latW) + 1) // and the one bandwidth window
	if simStats.LinkWindows.Load() != want || stats.LinkWindows.Load() != want {
		t.Fatalf("link windows: injector %d, RunWall %d; the schedule opens %d", simStats.LinkWindows.Load(), stats.LinkWindows.Load(), want)
	}
}

func TestRunWallCancel(t *testing.T) {
	p := &Profile{Seed: 5, Duration: Dur(time.Hour), Specs: []Spec{
		{Kind: KindCrash, Period: Dur(time.Minute), MTTR: Dur(time.Minute)},
	}}
	sched, err := Compile(p, testTargets(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := RunWall(ctx, sched, WallHooks{Kill: func(int64) {}}, obs.FaultStatsIn(obs.NewRegistry())); err == nil {
		t.Fatal("canceled RunWall returned nil")
	}
}

// TestBandwidthIsOneWindow: a bandwidth spec squeezes every uplink through
// the schedule's window lookup, so it compiles to one global edge pair
// however many supernodes there are.
func TestBandwidthIsOneWindow(t *testing.T) {
	p := &Profile{Seed: 4, Duration: Dur(time.Hour), Specs: []Spec{
		{Kind: KindBandwidth, Start: Dur(time.Minute), End: Dur(2 * time.Minute), Factor: 0.4},
	}}
	want := []Event{
		{At: time.Minute, Op: OpBandwidth, F: 0.4},
		{At: 2 * time.Minute, Op: OpBandwidth, F: 1},
	}
	for _, n := range []int{0, 1, 16, 200} {
		s, err := Compile(p, testTargets(n))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.Events, want) {
			t.Fatalf("%d targets: events %+v, want %+v", n, s.Events, want)
		}
	}
}

// TestInjectorCountsBandwidthWindows: each bandwidth window is one link
// window in the fault ledger, beside the loss and latency windows.
func TestInjectorCountsBandwidthWindows(t *testing.T) {
	f, _, tg := buildFaultFog(t, 12, 40, nil)
	p := &Profile{Seed: 4, Duration: Dur(time.Hour), Specs: []Spec{
		{Kind: KindBandwidth, Start: Dur(time.Minute), End: Dur(2 * time.Minute), Factor: 0.4},
		{Kind: KindBandwidth, Start: Dur(10 * time.Minute), End: Dur(20 * time.Minute), Factor: 0.7},
		{Kind: KindLatency, MeanGood: Dur(5 * time.Minute), MeanBad: Dur(time.Minute), Extra: Dur(time.Millisecond)},
	}}
	sched, err := Compile(p, tg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	stats := obs.FaultStatsIn(obs.NewRegistry())
	inj := StartInjector(sched, engine, f, nil, sim.NewRand(1), stats, nil)
	engine.RunUntil(time.Hour)
	inj.Finish()
	if want := int64(2 + len(sched.latW)); stats.LinkWindows.Load() != want {
		t.Fatalf("%d link windows, want 2 bandwidth + %d latency", stats.LinkWindows.Load(), len(sched.latW))
	}
}

// TestOpNumbers pins the numbers a persisted schedule encodes: 1–7 are the
// live ops, and 8–13 (cloud scale, join, coordinator partition, worker
// distress) are retired and name no op.
func TestOpNumbers(t *testing.T) {
	for op, want := range map[Op]int{
		OpKill: 1, OpRecover: 2, OpLinkBad: 3, OpLinkGood: 4, OpLatencyOn: 5, OpLatencyOff: 6, OpBandwidth: 7,
	} {
		if int(op) != want {
			t.Errorf("%s = %d, want %d", op, op, want)
		}
	}
	for op := Op(8); op <= 13; op++ {
		if op.String() != "unknown" {
			t.Errorf("retired op %d is %q", op, op)
		}
	}
}

// TestRunWallImpairsRecoveredNode: a supernode recovered inside a latency
// window is a fresh, unimpaired process, so RunWall re-applies the window
// right after the recovery instead of leaving it clean until the next edge.
func TestRunWallImpairsRecoveredNode(t *testing.T) {
	ms := time.Millisecond
	sched := &Schedule{
		Profile: &Profile{Duration: Dur(50 * ms)},
		Events: []Event{
			{At: 10 * ms, Op: OpKill, Node: 7},
			{At: 20 * ms, Op: OpLatencyOn, D: 40 * ms},
			{At: 30 * ms, Op: OpRecover, Node: 7},
			{At: 40 * ms, Op: OpLatencyOff},
		},
		latW: []window{{from: 20 * ms, to: 40 * ms, d: 40 * ms}},
	}
	var got []string
	err := RunWall(context.Background(), sched, WallHooks{
		Kill:    func(int64) { got = append(got, "kill") },
		Recover: func(int64) bool { got = append(got, "recover"); return true },
		Link:    func(extra time.Duration, _ float64) { got = append(got, "link "+extra.String()) },
	}, obs.FaultStatsIn(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"kill", "link 40ms", "recover", "link 40ms", "link 0s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("hooks ran %v, want %v", got, want)
	}
}
