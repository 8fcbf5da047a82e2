package experiment

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/metrics"
	"cloudfog/internal/workload"
)

// testWorld builds a scaled-down world: 1,500 players, 100 supernodes,
// 10 edge servers — the same proportions as the paper defaults, sized so
// the whole test file runs in seconds.
func testWorld(t *testing.T) *World {
	t.Helper()
	cfg := Default(2026)
	cfg.Players = 1500
	cfg.Supernodes = 100
	cfg.EdgeServers = 10
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func reqs() []time.Duration {
	return []time.Duration{30 * time.Millisecond, 70 * time.Millisecond, 110 * time.Millisecond}
}

func at(s metrics.Series, x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return -1
}

func TestConfigValidation(t *testing.T) {
	bad := Default(1)
	bad.Players = 0
	if _, err := NewWorld(bad); err == nil {
		t.Fatal("zero players accepted")
	}
	bad = Default(1)
	bad.Datacenters = 0
	if _, err := NewWorld(bad); err == nil {
		t.Fatal("zero datacenters accepted")
	}
	bad = Default(1)
	bad.Supernodes = 100_000
	if _, err := NewWorld(bad); err == nil {
		t.Fatal("more supernodes than capable players accepted")
	}
}

// TestQoEFiguresRefuseHorizonInsideWarmup: a QoE figure whose node runs end
// inside the meters' 5 s warm-up records no packet, and an empty meter reads
// as perfect continuity. Each such figure is refused, naming itself, its
// horizon and the warm-up, before it simulates anything.
func TestQoEFiguresRefuseHorizonInsideWarmup(t *testing.T) {
	w := testWorld(t)
	for _, c := range []struct {
		fig     string
		horizon time.Duration
	}{
		{"fig9a", 15 * time.Second}, // a point runs for a third of it: 5 s
		{"fig10a", 5 * time.Second},
		{"fig11a", 2 * time.Second},
		{"figrecovery", 5 * time.Second},
	} {
		f, err := FigureByName(c.fig)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Run(w, RunOptions{Horizon: c.horizon})
		if err == nil {
			t.Errorf("%s at a %v horizon ran", c.fig, c.horizon)
			continue
		}
		for _, want := range []string{c.fig, c.horizon.String() + " horizon", "5s warm-up"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s at a %v horizon: error %q does not name %q", c.fig, c.horizon, err, want)
			}
		}
	}
}

// TestConfigRefusesAliasedNodeIDs: a supernode's ID is its population's
// supernode base plus its player's, so the four ID ranges have to stay apart
// at every population Validate lets through — a player and a supernode sharing
// one trace.NodeID would measure a landscape nobody configured. Up to a
// million players the bases are what they always were (every latency draw,
// golden and recording keyed by them stands); above it they widen; Validate
// refuses a population a player's 32-bit ID cannot index.
func TestConfigRefusesAliasedNodeIDs(t *testing.T) {
	for _, players := range []int{1_000_000, 1_000_001, 10_000_000, workload.MaxPlayers} {
		cfg := Default(1)
		cfg.Players = players
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%d players refused: %v", players, err)
		}
		sn, dc, edge := workload.SupernodeIDBase(players), workload.DatacenterIDBase(players), workload.EdgeServerIDBase(players)
		lastPlayer := workload.PlayerIDBase + int64(players) - 1
		// NewWorld places at most max(Datacenters, 25) datacenter sites.
		if lastPlayer >= sn || sn+lastPlayer >= dc || dc+25 > edge || edge+int64(cfg.EdgeServers) < edge {
			t.Fatalf("%d players: ID ranges overlap: last player %d, supernodes from %d, datacenters from %d, edge servers from %d",
				players, lastPlayer, sn, dc, edge)
		}
		if players == 1_000_000 && (sn != 1_000_000 || dc != 2_000_000 || edge != 3_000_000) {
			t.Fatalf("a million players moved the bases to %d, %d, %d", sn, dc, edge)
		}
	}
	cfg := Default(1)
	limit := workload.MaxPlayers
	cfg.Players = int(limit) + 1
	err := cfg.Validate()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(limit)) {
		t.Fatalf("%d players: error %v, want one naming the limit %d", cfg.Players, err, limit)
	}
	if _, err := NewWorld(cfg); err == nil {
		t.Fatalf("NewWorld built a world of %d players", cfg.Players)
	}
}

func TestWorldDeterministic(t *testing.T) {
	cfg := Default(7)
	cfg.Players = 500
	cfg.Supernodes = 30
	w1, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := NewWorld(cfg)
	for i := range w1.snSpec {
		if w1.snSpec[i] != w2.snSpec[i] {
			t.Fatal("supernode specs diverge across identical worlds")
		}
	}
	if w1.dcPts[0] != w2.dcPts[0] {
		t.Fatal("datacenter placement diverges")
	}
}

// TestFig5aShape: coverage grows with datacenters (with diminishing
// returns) and shrinks with stricter latency requirements.
func TestFig5aShape(t *testing.T) {
	w := testWorld(t)
	series, err := CoverageVsDatacenters(w, []int{1, 5, 25}, reqs())
	if err != nil {
		t.Fatal(err)
	}
	lenient := series[len(series)-1] // 110ms
	if at(lenient, 25) <= at(lenient, 1) {
		t.Fatalf("coverage did not grow with datacenters: %v", lenient.Points)
	}
	if at(lenient, 5) <= 0.3 {
		t.Fatalf("5-DC coverage at 110ms = %v, implausibly low", at(lenient, 5))
	}
	// Stricter requirement => lower coverage at every datacenter count.
	strict := series[0] // 30ms
	for _, x := range []float64{1, 5, 25} {
		if at(strict, x) >= at(lenient, x) {
			t.Fatalf("30ms coverage %v >= 110ms coverage %v at %v DCs",
				at(strict, x), at(lenient, x), x)
		}
	}
}

// TestFig5bShape: supernodes increase coverage at lenient requirements.
func TestFig5bShape(t *testing.T) {
	w := testWorld(t)
	series, err := CoverageVsSupernodes(w, []int{0, 100}, reqs())
	if err != nil {
		t.Fatal(err)
	}
	lenient := series[len(series)-1]
	if at(lenient, 100) <= at(lenient, 0) {
		t.Fatalf("supernodes did not increase 110ms coverage: %v", lenient.Points)
	}
	// Supernodes must never reduce coverage at any requirement.
	for _, s := range series {
		if at(s, 100) < at(s, 0)-0.01 {
			t.Fatalf("supernodes reduced coverage for %s: %v", s.Label, s.Points)
		}
	}
}

// TestFig7Shape: bandwidth ordering Cloud > EdgeCloud > CloudFog/B, and
// CloudFog's growth is the flattest.
func TestFig7Shape(t *testing.T) {
	w := testWorld(t)
	series, err := BandwidthVsPlayers(w, []int{750, 1500})
	if err != nil {
		t.Fatal(err)
	}
	cloud, edge, fog := series[0], series[1], series[2]
	for _, x := range []float64{750, 1500} {
		if !(at(cloud, x) > at(edge, x) && at(edge, x) > at(fog, x)) {
			t.Fatalf("bandwidth ordering violated at %v players: cloud=%v edge=%v fog=%v",
				x, at(cloud, x), at(edge, x), at(fog, x))
		}
	}
	cloudSlope := at(cloud, 1500) - at(cloud, 750)
	fogSlope := at(fog, 1500) - at(fog, 750)
	if fogSlope >= cloudSlope {
		t.Fatalf("CloudFog bandwidth slope %v not flatter than Cloud's %v", fogSlope, cloudSlope)
	}
}

// TestFig8Shape: mean response latency ordering
// Cloud > EdgeCloud? > CloudFog/B > CloudFog/A (EdgeCloud sits between
// Cloud and CloudFog/B; with only slightly lower latency than Cloud, as
// the paper reports).
func TestFig8Shape(t *testing.T) {
	w := testWorld(t)
	results, err := ResponseLatency(w)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]time.Duration{}
	for _, r := range results {
		byName[r.System] = r.Mean
	}
	if len(byName) != 4 {
		t.Fatalf("expected 4 systems, got %v", byName)
	}
	if !(byName["Cloud"] > byName["CloudFog/B"]) {
		t.Fatalf("Cloud (%v) not slower than CloudFog/B (%v)", byName["Cloud"], byName["CloudFog/B"])
	}
	if !(byName["Cloud"] >= byName["EdgeCloud"]) {
		t.Fatalf("Cloud (%v) not slower than EdgeCloud (%v)", byName["Cloud"], byName["EdgeCloud"])
	}
	if !(byName["EdgeCloud"] > byName["CloudFog/B"]) {
		t.Fatalf("EdgeCloud (%v) not slower than CloudFog/B (%v)", byName["EdgeCloud"], byName["CloudFog/B"])
	}
	if !(byName["CloudFog/B"] >= byName["CloudFog/A"]) {
		t.Fatalf("CloudFog/B (%v) not slower than CloudFog/A (%v)", byName["CloudFog/B"], byName["CloudFog/A"])
	}
}

// TestFig9Shape: continuity ordering Cloud < CloudFog/B <= CloudFog/A.
func TestFig9Shape(t *testing.T) {
	w := testWorld(t)
	series, err := ContinuityVsPlayers(w, []int{400}, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	get := func(label string) float64 {
		for _, s := range series {
			if s.Label == label {
				return at(s, 400)
			}
		}
		t.Fatalf("missing series %s", label)
		return 0
	}
	cloud, fogB, fogA := get("Cloud"), get("CloudFog/B"), get("CloudFog/A")
	if !(fogB > cloud) {
		t.Fatalf("CloudFog/B continuity %v not above Cloud %v", fogB, cloud)
	}
	if fogA < fogB-0.02 {
		t.Fatalf("CloudFog/A continuity %v below CloudFog/B %v", fogA, fogB)
	}
}

// TestFig10Shape: the rate adaptation keeps satisfaction up at loads where
// CloudFog/B collapses.
func TestFig10Shape(t *testing.T) {
	w := testWorld(t)
	series, err := AdaptationEffect(w, []int{5, 30}, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	without, with := series[0], series[1]
	if at(with, 30) <= at(without, 30)+0.1 {
		t.Fatalf("adaptation gain at 30 players too small: with=%v without=%v",
			at(with, 30), at(without, 30))
	}
	// At light load both behave the same.
	if d := at(with, 5) - at(without, 5); d < -0.05 || d > 0.05 {
		t.Fatalf("variants diverge at light load: with=%v without=%v", at(with, 5), at(without, 5))
	}
}

// TestFig11Shape: the deadline scheduling keeps satisfaction up at loads
// where CloudFog/B collapses, and never hurts at light load.
func TestFig11Shape(t *testing.T) {
	w := testWorld(t)
	series, err := SchedulingEffect(w, []int{5, 30}, 40*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	without, with := series[0], series[1]
	if at(with, 30) <= at(without, 30)+0.1 {
		t.Fatalf("scheduling gain at 30 players too small: with=%v without=%v",
			at(with, 30), at(without, 30))
	}
	if at(with, 5) < at(without, 5)-0.05 {
		t.Fatalf("scheduling hurt light load: with=%v without=%v", at(with, 5), at(without, 5))
	}
}

func TestJoinAllRestoresOnLeave(t *testing.T) {
	w := testWorld(t)
	sys, err := w.NewFog(w.Cfg.Datacenters, 50)
	if err != nil {
		t.Fatal(err)
	}
	players := w.JoinAll(sys, 200)
	if sys.OnlinePlayers() != 200 {
		t.Fatalf("online = %d", sys.OnlinePlayers())
	}
	w.LeaveAll(sys, players)
	if sys.OnlinePlayers() != 0 {
		t.Fatal("players leaked after LeaveAll")
	}
	for _, p := range players {
		if p.Online || p.Attached.Served() {
			t.Fatal("player state not reset")
		}
	}
}

// TestJoinAllGameDrawGolden pins which game JoinAll gives each player, in join
// order: a digest of (player ID, game ID) recorded when every player carried
// its own copy of the game. A change to the draw — its stream, its range, the
// table it indexes — fails here by name, before it moves a figure.
func TestJoinAllGameDrawGolden(t *testing.T) {
	const want = "1e65254b1a4ccc6b"
	cfg := Default(2026)
	cfg.Players = 600
	cfg.Supernodes = 40
	cfg.EdgeServers = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [16]byte
	for _, p := range w.JoinAll(sys, 500) {
		binary.LittleEndian.PutUint64(b[:8], uint64(p.ID))
		binary.LittleEndian.PutUint64(b[8:], uint64(p.Game().ID))
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("JoinAll's (player, game) digest %s, want %s: the game draw moved", got, want)
	}
}

// TestPlayerGameRows checks the one-byte game a player holds: no game before
// a join, a pointer to one of game's own rows after one (all five turn up
// under JoinAll, and JoinAllGame gives every player the row it was passed),
// none again in a clone, and a JoinAllGame panic on a game that is no row.
func TestPlayerGameRows(t *testing.T) {
	cfg := Default(2026)
	cfg.Players = 600
	cfg.Supernodes = 40
	cfg.EdgeServers = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Pop.Players {
		if g := w.Pop.Players[i].Game(); g != nil {
			t.Fatalf("player %d plays %s before any join", w.Pop.Players[i].ID, g.Name)
		}
	}
	sys, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	players := w.JoinAll(sys, w.Cfg.Players)
	for _, p := range players {
		g := p.Game()
		if g == nil || g != game.Row(uint8(g.ID)) {
			t.Fatalf("player %d's game %v is not a row of game's table", p.ID, g)
		}
		seen[g.ID] = true
	}
	if len(seen) != game.Count {
		t.Fatalf("JoinAll drew games %v, want all %d", seen, game.Count)
	}
	w.LeaveAll(sys, players)
	for _, want := range game.Games() {
		players := w.JoinAllGame(sys, w.Cfg.Players, want)
		for _, p := range players {
			if g := p.Game(); g == nil || *g != want {
				t.Fatalf("JoinAllGame(%s) gave player %d %v", want.Name, p.ID, g)
			}
		}
		w.LeaveAll(sys, players)
	}
	cw := w.Clone()
	for i := range cw.Pop.Players {
		if g := cw.Pop.Players[i].Game(); g != nil {
			t.Fatalf("a clone's player %d still plays %s", cw.Pop.Players[i].ID, g.Name)
		}
		if w.Pop.Players[i].Game() == nil {
			t.Fatalf("cloning reset the original's player %d", w.Pop.Players[i].ID)
		}
	}
	off := *game.Row(1)
	off.LatencyReq++
	defer func() {
		if recover() == nil {
			t.Fatal("JoinAllGame joined players on a game that is no row of game's table")
		}
	}()
	w.JoinAllGame(sys, 10, off)
}

// TestCloudAttachGolden pins the Cloud baseline's attachments: a digest of
// (player ID, serving datacenter ID, stream latency) in join order, then the
// cloud's egress. A moved geolocation stream or datacenter tie-break fails
// here by name, before it moves Figures 5(a), 7(a), 8(a) or 9(a).
func TestCloudAttachGolden(t *testing.T) {
	const want = "e1f4c8d7ca8704c7"
	cfg := Default(2026)
	cfg.Players = 600
	cfg.Supernodes = 40
	cfg.EdgeServers = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.NewCloud(w.Cfg.Datacenters)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [24]byte
	for _, p := range w.JoinAll(sys, 500) {
		binary.LittleEndian.PutUint64(b[:8], uint64(p.ID))
		binary.LittleEndian.PutUint64(b[8:16], uint64(p.Attached.DC.ID))
		binary.LittleEndian.PutUint64(b[16:], uint64(p.Attached.StreamLatency))
		h.Write(b[:])
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(sys.CloudBandwidth()))
	h.Write(b[:8])
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("Cloud attachment digest %s, want %s: a join moved", got, want)
	}
}

// TestEdgeCloudAttachGolden pins the EdgeCloud baseline's attachments: a
// digest of (player ID, serving node ID, stream latency, attachment kind) in
// join order, then the main datacenters' egress. The 5 edge servers fill, so
// the digest covers the overflow onto the datacenters as well as the nearest
// edge server and the tie-break between them. A change to either fails here
// by name, before it moves Figures 7(a), 8(a) or 9(a).
func TestEdgeCloudAttachGolden(t *testing.T) {
	const want = "5b95a389982550ac"
	cfg := Default(2026)
	cfg.Players = 600
	cfg.Supernodes = 40
	cfg.EdgeServers = 5
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.NewEdgeCloud(w.Cfg.Datacenters)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [32]byte
	edge := 0
	for _, p := range w.JoinAll(sys, 500) {
		binary.LittleEndian.PutUint64(b[:8], uint64(p.ID))
		binary.LittleEndian.PutUint64(b[8:16], uint64(p.Attached.DC.ID))
		binary.LittleEndian.PutUint64(b[16:24], uint64(p.Attached.StreamLatency))
		binary.LittleEndian.PutUint64(b[24:], uint64(p.Attached.Kind()))
		h.Write(b[:])
		if p.Attached.Kind() == core.AttachEdge {
			edge++
		}
	}
	binary.LittleEndian.PutUint64(b[:8], uint64(sys.CloudBandwidth()))
	h.Write(b[:8])
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("EdgeCloud attachment digest %s, want %s: a join moved (%d of 500 on edge servers)", got, want, edge)
	}
	if edge != 75 {
		t.Fatalf("%d of 500 players on edge servers, want 75", edge)
	}
}

// TestFogAttachPathGolden pins CloudFog's attachments: a digest of (player
// ID, attachment kind, serving supernode ID or 0, datacenter ID, stream
// latency, path latency) in join order. The Cloud and EdgeCloud goldens build
// fogs with no supernodes, so this is the one that reads a supernode's update
// latency through a player's attachment.
func TestFogAttachPathGolden(t *testing.T) {
	const want = "f121964225026f3e"
	cfg := Default(2026)
	cfg.Players = 600
	cfg.Supernodes = 40
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var b [48]byte
	fog := 0
	for _, p := range w.JoinAll(sys, 500) {
		a := p.Attached
		var sn int64
		if a.SN != nil {
			sn = a.SN.ID
			fog++
		}
		binary.LittleEndian.PutUint64(b[:8], uint64(p.ID))
		binary.LittleEndian.PutUint64(b[8:16], uint64(a.Kind()))
		binary.LittleEndian.PutUint64(b[16:24], uint64(sn))
		binary.LittleEndian.PutUint64(b[24:32], uint64(a.DC.ID))
		binary.LittleEndian.PutUint64(b[32:40], uint64(a.StreamLatency))
		binary.LittleEndian.PutUint64(b[40:], uint64(a.PathLatency()))
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
		t.Fatalf("CloudFog attachment digest %s, want %s: a join or a path latency moved (%d of 500 on supernodes)", got, want, fog)
	}
	if fog != 127 {
		t.Fatalf("%d of 500 players on supernodes, want 127", fog)
	}
}

func TestGameForRequirement(t *testing.T) {
	g, err := gameForRequirement(70 * time.Millisecond)
	if err != nil || g.ID != 3 {
		t.Fatalf("70ms -> game %d, %v", g.ID, err)
	}
	if _, err := gameForRequirement(42 * time.Millisecond); err == nil {
		t.Fatal("unknown requirement accepted")
	}
}

func TestSupernodeScenarioShape(t *testing.T) {
	w := testWorld(t)
	uplink, specs := w.SupernodeScenario(12)
	if uplink <= 0 || len(specs) != 12 {
		t.Fatalf("scenario: uplink=%d players=%d", uplink, len(specs))
	}
	ids := map[int64]bool{}
	for _, sp := range specs {
		if sp.Latency <= 0 || sp.InboundDelay <= 0 {
			t.Fatalf("bad latencies in spec %+v", sp)
		}
		if ids[sp.ID] {
			t.Fatal("duplicate player in scenario")
		}
		ids[sp.ID] = true
	}
}
