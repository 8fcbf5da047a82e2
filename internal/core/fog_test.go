package core

import (
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
)

func testConfig() Config {
	cfg := DefaultConfig(1)
	cfg.Locator.ErrorSigma = 0 // exact geolocation keeps tests deterministic
	return cfg
}

// benignModel returns the config's latency model with tiny pair noise, for
// tests whose assertions need every nearby probe to succeed.
func benignModel(cfg Config) trace.Model {
	m := cfg.Latency.(trace.Model)
	m.NoiseMedian = 2 * time.Millisecond
	return m
}

func mustGame(t *testing.T, id int) game.Game {
	t.Helper()
	g, err := game.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildTestFog makes a fog with one central datacenter and a line of
// supernodes near the region center.
func buildTestFog(t *testing.T, cfg Config, nSupernodes int) *Fog {
	t.Helper()
	center := cfg.Region.Center()
	dc := NewDatacenter(2_000_000, geo.Point{X: center.X + 1200, Y: center.Y}, cfg.DCEgress)
	sns := make([]*Supernode, nSupernodes)
	for i := range sns {
		pos := geo.Point{X: center.X + float64(i*15), Y: center.Y + 10}
		sns[i] = NewSupernode(1_000_000+int64(i), pos, 5, 5*cfg.UplinkPerSlot)
	}
	f, err := BuildFog(cfg, []*Datacenter{dc}, sns, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func testPlayer(id int64, pos geo.Point, g game.Game) *Player {
	return &Player{ID: id, Pos: pos, Game: &g, Downlink: 20_000_000}
}

func TestBuildFogValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := BuildFog(cfg, nil, nil, sim.NewRand(1)); err == nil {
		t.Fatal("fog with no datacenters accepted")
	}
	bad := cfg
	bad.Candidates = 0
	dc := NewDatacenter(1, cfg.Region.Center(), cfg.DCEgress)
	if _, err := BuildFog(bad, []*Datacenter{dc}, nil, sim.NewRand(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRegisterSupernodeChoosesMinLatencyDC(t *testing.T) {
	cfg := testConfig()
	center := cfg.Region.Center()
	near := NewDatacenter(2_000_000, geo.Point{X: center.X + 50, Y: center.Y}, cfg.DCEgress)
	far := NewDatacenter(2_000_001, geo.Point{X: center.X + 2000, Y: center.Y}, cfg.DCEgress)
	sn := NewSupernode(1_000_000, center, 5, 5*cfg.UplinkPerSlot)
	f, err := BuildFog(cfg, []*Datacenter{far, near}, []*Supernode{sn}, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	_ = f
	wantNear := cfg.Latency.OneWay(near.Endpoint(), sn.Endpoint())
	wantFar := cfg.Latency.OneWay(far.Endpoint(), sn.Endpoint())
	if wantNear < wantFar && sn.DC != near {
		t.Fatalf("supernode attached to DC %d, want min-latency DC %d", sn.DC.ID, near.ID)
	}
	if sn.UpdateLatency != cfg.Latency.OneWay(sn.DC.Endpoint(), sn.Endpoint()) {
		t.Fatal("update latency not recorded")
	}
}

func TestRegisterDuplicateSupernode(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 1)
	dup := NewSupernode(1_000_000, cfg.Region.Center(), 5, 5*cfg.UplinkPerSlot)
	if err := f.RegisterSupernode(dup); err == nil {
		t.Fatal("duplicate supernode registration accepted")
	}
}

func TestJoinPrefersNearbySupernode(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 10)
	p := testPlayer(1, geo.Point{X: cfg.Region.Center().X, Y: cfg.Region.Center().Y}, mustGame(t, 5))
	a := f.Join(p)
	if a.Kind() != AttachSupernode {
		t.Fatalf("player attached to %v, want supernode", a.Kind())
	}
	if a.SN.Load() != 1 {
		t.Fatalf("supernode load = %d, want 1", a.SN.Load())
	}
	// The chosen supernode must satisfy the player's L_max threshold.
	lmax := cfg.Lmax(p.Game.NetworkBudget())
	if a.StreamLatency > lmax {
		t.Fatalf("stream latency %v exceeds L_max %v", a.StreamLatency, lmax)
	}
	// The path's update hop is the one the supernode registered with.
	if a.PathLatency() != a.StreamLatency+a.SN.UpdateLatency {
		t.Fatal("attachment update latency mismatch")
	}
	if f.OnlinePlayers() != 1 {
		t.Fatalf("online = %d, want 1", f.OnlinePlayers())
	}
}

func TestJoinChoosesMinTotalPathDelay(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 10)
	p := testPlayer(2, cfg.Region.Center(), mustGame(t, 5))
	a := f.Join(p)
	chosen := a.StreamLatency + a.UpdateLatency()
	// No other qualified candidate may beat the chosen total serving-path
	// delay (stream hop + cloud->supernode update hop). With exact
	// geolocation and 10 supernodes, every supernode is in the shortlist.
	lmax := cfg.Lmax(p.Game.NetworkBudget())
	for _, sn := range f.Supernodes() {
		if sn == a.SN {
			continue
		}
		d := cfg.Latency.OneWay(p.Endpoint(), sn.Endpoint())
		if d <= lmax && d+sn.UpdateLatency < chosen {
			t.Fatalf("supernode %d has total path %v < chosen %v",
				sn.ID, d+sn.UpdateLatency, chosen)
		}
	}
}

func TestJoinRecordsBackups(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 10)
	p := testPlayer(3, cfg.Region.Center(), mustGame(t, 5))
	f.Join(p)
	if len(p.Backups) == 0 {
		t.Fatal("no backups recorded despite several qualified candidates")
	}
	for _, b := range p.Backups {
		if b == p.Attached.SN {
			t.Fatal("serving supernode listed as backup")
		}
	}
}

func TestJoinFallsBackToCloudWhenNoSupernodeQualifies(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 10)
	// A player on the far edge of the region: all supernodes are ~2000 km
	// away, well beyond any game's L_max.
	p := testPlayer(4, geo.Point{X: 0, Y: 0}, mustGame(t, 1))
	a := f.Join(p)
	if a.Kind() != AttachCloud {
		t.Fatalf("remote player attached to %v, want cloud fallback", a.Kind())
	}
	if a.DC == nil || a.DC.DirectPlayers() != 1 {
		t.Fatal("cloud fallback did not register at the datacenter")
	}
}

// twoHop is a latency source with one figure for every path that touches a
// datacenter and another for every path that does not.
type twoHop struct{ update, stream time.Duration }

func (s *twoHop) OneWay(a, b trace.Endpoint) time.Duration {
	if a.Class == trace.ClassDatacenter || b.Class == trace.ClassDatacenter {
		return s.update
	}
	return s.stream
}

// TestProbeLimitIsTheTighterOfLmaxAndBudget pins the one limit a candidate's
// probed hop is held to: L_max, or what the game's budget leaves after the
// supernode's update hop and the per-slot transmission floor, whichever is
// less. A hop exactly at the limit qualifies, a nanosecond over sends the
// player to the cloud — once with L_max the tighter of the two, once with
// the budget.
func TestProbeLimitIsTheTighterOfLmaxAndBudget(t *testing.T) {
	g := mustGame(t, 5)
	for _, tc := range []struct {
		name       string
		lmaxFactor float64
		lmaxBinds  bool
	}{{"lmax", 0.5, true}, {"budget", 1.0, false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.LmaxFactor = tc.lmaxFactor
			src := &twoHop{update: 2 * time.Millisecond}
			cfg.Latency = src
			f := buildTestFog(t, cfg, 3)

			segBits := float64(cfg.Stream.SegmentBytes(g.Quality().Bitrate)) * 8
			minTrans := time.Duration(segBits / float64(cfg.UplinkPerSlot) * float64(time.Second))
			lmax, rest := cfg.Lmax(g.NetworkBudget()), g.NetworkBudget()-src.update-minTrans
			if (lmax < rest) != tc.lmaxBinds || lmax == rest {
				t.Fatalf("L_max %v against %v left of the budget: the case does not make the intended one the tighter", lmax, rest)
			}
			limit := rest
			if tc.lmaxBinds {
				limit = lmax
			}
			p := testPlayer(1, cfg.Region.Center(), g)
			src.stream = limit
			if a := f.Join(p); a.Kind() != AttachSupernode || a.StreamLatency != limit {
				t.Fatalf("hop at the limit %v: attached %v with stream latency %v, want a supernode at the limit", limit, a.Kind(), a.StreamLatency)
			}
			f.Leave(p)
			src.stream = limit + 1
			if a := f.Join(p); a.Kind() != AttachCloud {
				t.Fatalf("hop a nanosecond over the limit %v: attached %v, want the cloud", limit, a.Kind())
			}
		})
	}
}

// TestFailoverReprobesBackupDelay: a recorded backup is probed again when it
// is called on, and held to L_max like any candidate — a backup whose path has
// degraded past it since the join is passed over.
func TestFailoverReprobesBackupDelay(t *testing.T) {
	g := mustGame(t, 5)
	cfg := testConfig()
	src := &twoHop{update: 2 * time.Millisecond, stream: 5 * time.Millisecond}
	cfg.Latency = src
	f := buildTestFog(t, cfg, 3)
	lmax := cfg.Lmax(g.NetworkBudget())

	p := testPlayer(1, cfg.Region.Center(), g)
	f.Join(p)
	if p.Attached.Kind() != AttachSupernode || len(p.Backups) != 2 {
		t.Fatalf("join attached %v with %d backups, want a supernode and 2", p.Attached.Kind(), len(p.Backups))
	}
	src.stream = lmax
	backup := p.Backups[0]
	f.DeregisterSupernode(p.Attached.SN.ID)
	if p.Attached.SN != backup || p.Attached.StreamLatency != lmax {
		t.Fatalf("backup at L_max: player on %+v, want backup %d at %v", p.Attached, backup.ID, lmax)
	}
	src.stream = lmax + 1
	f.DeregisterSupernode(backup.ID)
	if p.Attached.Kind() != AttachCloud {
		t.Fatalf("backup a nanosecond past L_max: player attached %v, want the cloud", p.Attached.Kind())
	}
}

func TestJoinRespectsCapacity(t *testing.T) {
	cfg := testConfig()
	// A benign latency landscape (tiny pair noise) keeps every probe well
	// inside the game-5 budget, so the capacity limit is the only thing
	// stopping joins.
	cfg.Latency = benignModel(cfg)
	center := cfg.Region.Center()
	dc := NewDatacenter(2_000_000, geo.Point{X: center.X + 300, Y: center.Y}, cfg.DCEgress)
	sn := NewSupernode(1_000_000, center, 2, 2*cfg.UplinkPerSlot) // capacity 2
	f, err := BuildFog(cfg, []*Datacenter{dc}, []*Supernode{sn}, sim.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	attached := 0
	for i := int64(0); i < 5; i++ {
		p := testPlayer(10+i, center, mustGame(t, 5))
		if f.Join(p).Kind() == AttachSupernode {
			attached++
		}
	}
	if attached != 2 {
		t.Fatalf("supernode served %d players, capacity is 2", attached)
	}
	if sn.Available() != 0 {
		t.Fatalf("available = %d, want 0", sn.Available())
	}
}

func TestLeaveFreesCapacity(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 3)
	p := testPlayer(20, cfg.Region.Center(), mustGame(t, 5))
	a := f.Join(p)
	sn := a.SN
	f.Leave(p)
	if p.Online || p.Attached.Served() {
		t.Fatal("player still marked online/attached after Leave")
	}
	if sn.Load() != 0 {
		t.Fatalf("supernode load = %d after leave, want 0", sn.Load())
	}
	if f.OnlinePlayers() != 0 {
		t.Fatal("online count not decremented")
	}
	// Double leave is a no-op.
	f.Leave(p)
}

func TestJoinIdempotent(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 3)
	p := testPlayer(21, cfg.Region.Center(), mustGame(t, 5))
	a1 := f.Join(p)
	a2 := f.Join(p)
	if a1 != a2 {
		t.Fatal("second Join changed the attachment")
	}
	if a1.SN.Load() != 1 {
		t.Fatalf("double join double-registered: load %d", a1.SN.Load())
	}
}

func TestDeregisterSupernodeFailsOverToBackup(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 10)
	p := testPlayer(30, cfg.Region.Center(), mustGame(t, 5))
	f.Join(p)
	serving := p.Attached.SN
	backups := len(p.Backups)
	if backups == 0 {
		t.Fatal("test needs backups")
	}
	f.DeregisterSupernode(serving.ID)
	if !p.Attached.Served() {
		t.Fatal("player left unserved after supernode departure")
	}
	if p.Attached.SN == serving {
		t.Fatal("player still attached to departed supernode")
	}
	if p.Attached.Kind() != AttachSupernode {
		t.Fatalf("failover attached to %v, want a backup supernode", p.Attached.Kind())
	}
	if len(f.Supernodes()) != 9 {
		t.Fatalf("supernode list has %d entries, want 9", len(f.Supernodes()))
	}
}

func TestDeregisterLastSupernodeFallsBackToCloud(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 1)
	p := testPlayer(31, cfg.Region.Center(), mustGame(t, 5))
	f.Join(p)
	if p.Attached.Kind() != AttachSupernode {
		t.Skip("player did not attach to the single supernode")
	}
	f.DeregisterSupernode(p.Attached.SN.ID)
	if p.Attached.Kind() != AttachCloud {
		t.Fatalf("player attached to %v after last supernode left, want cloud", p.Attached.Kind())
	}
}

func TestDeregisterUnknownSupernodeIsNoop(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 2)
	f.DeregisterSupernode(999999)
	if len(f.Supernodes()) != 2 {
		t.Fatal("deregistering unknown supernode mutated the list")
	}
}

func TestNetworkLatencyComposition(t *testing.T) {
	cfg := testConfig()
	cfg.Latency = benignModel(cfg) // fog attach guaranteed
	f := buildTestFog(t, cfg, 5)
	p := testPlayer(40, cfg.Region.Center(), mustGame(t, 5))
	a := f.Join(p)
	if a.Kind() != AttachSupernode {
		t.Fatalf("player attached to %v, want supernode", a.Kind())
	}
	got := f.NetworkLatency(p)
	if got <= a.PathLatency() {
		t.Fatalf("network latency %v must exceed pure propagation %v (transmission time)", got, a.PathLatency())
	}
	// With a lightly loaded supernode the transmission time is segment
	// bytes over min(share, downlink).
	share := a.SN.Share()
	if p.Downlink < share {
		share = p.Downlink
	}
	segBytes := cfg.Stream.SegmentBytes(p.Game.Quality().Bitrate)
	wantTrans := time.Duration(float64(segBytes) * 8 / float64(share) * float64(time.Second))
	if got != a.PathLatency()+wantTrans {
		t.Fatalf("latency = %v, want %v", got, a.PathLatency()+wantTrans)
	}
}

// TestCensusMatchesHandCount: Census is the per-player loop the figures used
// to write out — counted here by hand — with a supernode's players orphaned by
// a failure and again once they have failed over.
func TestCensusMatchesHandCount(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 4)
	players := make([]*Player, 30) // 20 slots: some are served by the cloud
	for i := range players {
		pos := geo.Point{X: cfg.Region.Center().X + float64(i*3), Y: cfg.Region.Center().Y}
		players[i] = testPlayer(int64(60+i), pos, mustGame(t, 1+i%5))
		f.Join(players[i])
	}
	check := func(when string, wantUnserved int) {
		t.Helper()
		var want Census
		for _, p := range players {
			switch {
			case p.Attached.Kind() == AttachNone:
				want.Unserved++
				continue
			case p.Attached.Kind() == AttachSupernode:
				want.FogServed++
			}
			want.Served++
			if FlowLatency(cfg, p) <= p.Game.NetworkBudget() {
				want.Within++
			}
		}
		got := f.Census(players)
		if got != want || got.Served+got.Unserved != len(players) || got.Within > got.Served || got.Unserved != wantUnserved {
			t.Fatalf("%s: Census = %+v, hand count %+v, %d unserved expected of %d", when, got, want, wantUnserved, len(players))
		}
	}
	check("everyone joined", 0)
	if c := f.Census(players); c.FogServed == 0 || c.FogServed == c.Served {
		t.Fatalf("the world needs fog- and cloud-served players both: %+v", c)
	}
	var orphans []*Player
	for _, sn := range f.Supernodes() {
		if sn.Load() > 0 {
			orphans = f.FailSupernode(sn.ID)
			break
		}
	}
	check("after the failure", len(orphans))
	for _, p := range orphans {
		f.Failover(p)
	}
	check("after failover", 0)
}

func TestNetworkLatencyUnservedIsHuge(t *testing.T) {
	cfg := testConfig()
	p := testPlayer(41, cfg.Region.Center(), mustGame(t, 5))
	if FlowLatency(cfg, p) < time.Hour {
		t.Fatal("unserved player should have effectively infinite latency")
	}
}

func TestCloudBandwidthAccounting(t *testing.T) {
	cfg := testConfig()
	f := buildTestFog(t, cfg, 5)
	// One fog-served player: cloud pays only Λ for the one active supernode.
	p1 := testPlayer(50, cfg.Region.Center(), mustGame(t, 5))
	f.Join(p1)
	if got := f.CloudBandwidth(); got != cfg.UpdateBandwidth {
		t.Fatalf("cloud bandwidth = %d, want Λ = %d", got, cfg.UpdateBandwidth)
	}
	// A remote strict-latency player forced to the cloud adds a full
	// wire-rate stream (game 1: no supernode can meet a 24 ms L_max from
	// 2700 km away).
	p2 := testPlayer(51, geo.Point{X: 0, Y: 0}, mustGame(t, 1))
	f.Join(p2)
	want := cfg.UpdateBandwidth + cfg.WireRate(p2.Game.Quality().Bitrate)
	if got := f.CloudBandwidth(); got != want {
		t.Fatalf("cloud bandwidth = %d, want %d", got, want)
	}
}

func TestLmaxScalesWithGame(t *testing.T) {
	cfg := testConfig()
	strict := cfg.Lmax(mustGame(t, 1).NetworkBudget())
	loose := cfg.Lmax(mustGame(t, 5).NetworkBudget())
	if strict >= loose {
		t.Fatalf("L_max(30ms game) %v >= L_max(110ms game) %v", strict, loose)
	}
	if strict != 24*time.Millisecond {
		t.Fatalf("L_max for 30ms budget = %v, want 24ms (factor 0.8)", strict)
	}
}

func TestAttachKindString(t *testing.T) {
	if AttachNone.String() != "none" || AttachCloud.String() != "cloud" ||
		AttachSupernode.String() != "supernode" || AttachEdge.String() != "edge" {
		t.Fatal("attach kind names wrong")
	}
	if AttachKind(9).String() == "" {
		t.Fatal("unknown kind produced empty string")
	}
}

func TestGeolocationErrorStillFindsSupernodes(t *testing.T) {
	cfg := testConfig()
	cfg.Locator.ErrorSigma = 50 // realistic IP-geolocation error
	f := buildTestFog(t, cfg, 10)
	p := testPlayer(70, cfg.Region.Center(), mustGame(t, 5))
	if a := f.Join(p); a.Kind() != AttachSupernode {
		t.Fatalf("player attached to %v despite nearby supernodes", a.Kind())
	}
}
