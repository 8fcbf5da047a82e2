package baseline

import (
	"testing"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig(1)
	cfg.Locator.ErrorSigma = 0
	return cfg
}

func mustGame(t *testing.T, id int) game.Game {
	t.Helper()
	g, err := game.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func twoDCs(cfg core.Config) []*core.Datacenter {
	c := cfg.Region.Center()
	return []*core.Datacenter{
		core.NewDatacenter(2_000_000, geo.Point{X: c.X - 1500, Y: c.Y}, cfg.DCEgress),
		core.NewDatacenter(2_000_001, geo.Point{X: c.X + 1500, Y: c.Y}, cfg.DCEgress),
	}
}

func player(id int64, pos geo.Point, g game.Game) *core.Player {
	return &core.Player{ID: id, Pos: pos, Game: &g, Downlink: 20_000_000}
}

// The Cloud baseline is a fog with no supernodes: every join takes the
// protocol's cloud fallback, as experiment.World.NewCloud builds it.
func TestNewCloudValidation(t *testing.T) {
	cfg := testConfig()
	if _, err := core.BuildFog(cfg, nil, nil, sim.NewRand(1)); err == nil {
		t.Fatal("cloud with no datacenters accepted")
	}
	bad := cfg
	bad.LmaxFactor = 0
	if _, err := core.BuildFog(bad, twoDCs(cfg), nil, sim.NewRand(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCloudAttachesToClosestDC(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	c, err := core.BuildFog(cfg, dcs, nil, sim.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	west := player(1, geo.Point{X: cfg.Region.Center().X - 1400, Y: cfg.Region.Center().Y}, mustGame(t, 3))
	a := c.Join(west)
	if a.Kind != core.AttachCloud || a.DC != dcs[0] {
		t.Fatalf("west player attached to %v/%v, want west DC", a.Kind, a.DC)
	}
	east := player(2, geo.Point{X: cfg.Region.Center().X + 1400, Y: cfg.Region.Center().Y}, mustGame(t, 3))
	if got := c.Join(east); got.DC != dcs[1] {
		t.Fatal("east player not attached to east DC")
	}
	if c.OnlinePlayers() != 2 {
		t.Fatalf("online = %d, want 2", c.OnlinePlayers())
	}
}

func TestCloudLeave(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	c, _ := core.BuildFog(cfg, dcs, nil, sim.NewRand(2))
	p := player(3, cfg.Region.Center(), mustGame(t, 3))
	a := c.Join(p)
	c.Leave(p)
	if p.Online || p.Attached.Served() {
		t.Fatal("player still attached after Leave")
	}
	if a.DC.DirectPlayers() != 0 {
		t.Fatal("datacenter still lists the departed player")
	}
	c.Leave(p) // no-op
	if c.OnlinePlayers() != 0 {
		t.Fatal("online count wrong")
	}
}

func TestCloudBandwidthIsFullStreams(t *testing.T) {
	cfg := testConfig()
	c, _ := core.BuildFog(cfg, twoDCs(cfg), nil, sim.NewRand(2))
	c.Join(player(1, cfg.Region.Center(), mustGame(t, 3))) // 800 kbps
	c.Join(player(2, cfg.Region.Center(), mustGame(t, 5))) // 1800 kbps
	want := cfg.WireRate(800_000) + cfg.WireRate(1_800_000)
	if got := c.CloudBandwidth(); got != want {
		t.Fatalf("cloud bandwidth = %d, want %d", got, want)
	}
}

func TestCloudJoinIdempotent(t *testing.T) {
	cfg := testConfig()
	c, _ := core.BuildFog(cfg, twoDCs(cfg), nil, sim.NewRand(2))
	p := player(4, cfg.Region.Center(), mustGame(t, 3))
	a1 := c.Join(p)
	a2 := c.Join(p)
	if a1 != a2 || a1.DC.DirectPlayers() != 1 {
		t.Fatal("double join not idempotent")
	}
}

func TestNewEdgeCloudValidation(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	notEdge := core.NewDatacenter(3_000_000, cfg.Region.Center(), 100_000_000)
	if _, err := NewEdgeCloud(cfg, dcs, []*core.Datacenter{notEdge}, sim.NewRand(1)); err == nil {
		t.Fatal("non-edge server accepted")
	}
	if _, err := NewEdgeCloud(cfg, nil, nil, sim.NewRand(1)); err == nil {
		t.Fatal("edgecloud with no datacenters accepted")
	}
}

func TestEdgeCloudPrefersNearbyServer(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	center := cfg.Region.Center()
	server := core.NewEdgeServer(3_000_000, geo.Point{X: center.X, Y: center.Y + 20}, 100_000_000, 10)
	e, err := NewEdgeCloud(cfg, dcs, []*core.Datacenter{server}, sim.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	p := player(1, center, mustGame(t, 3))
	a := e.Join(p)
	if a.Kind != core.AttachEdge || a.DC != server {
		t.Fatalf("player attached to %v, want the nearby edge server", a.Kind)
	}
}

func TestEdgeCloudServerCapacityOverflowsToDC(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	center := cfg.Region.Center()
	server := core.NewEdgeServer(3_000_000, center, 100_000_000, 2)
	e, _ := NewEdgeCloud(cfg, dcs, []*core.Datacenter{server}, sim.NewRand(3))
	kinds := map[core.AttachKind]int{}
	for i := int64(0); i < 5; i++ {
		a := e.Join(player(10+i, center, mustGame(t, 3)))
		kinds[a.Kind]++
	}
	if kinds[core.AttachEdge] != 2 {
		t.Fatalf("edge served %d, capacity is 2", kinds[core.AttachEdge])
	}
	if kinds[core.AttachCloud] != 3 {
		t.Fatalf("overflow to cloud = %d, want 3", kinds[core.AttachCloud])
	}
}

func TestEdgeCloudBandwidthExcludesServers(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	center := cfg.Region.Center()
	server := core.NewEdgeServer(3_000_000, center, 100_000_000, 1)
	e, _ := NewEdgeCloud(cfg, dcs, []*core.Datacenter{server}, sim.NewRand(3))
	e.Join(player(1, center, mustGame(t, 3)))                                     // edge-served
	e.Join(player(2, geo.Point{X: center.X - 1400, Y: center.Y}, mustGame(t, 3))) // DC-served
	if got := e.CloudBandwidth(); got != cfg.WireRate(800_000) {
		t.Fatalf("cloud bandwidth = %d, want only the DC-served stream %d",
			got, cfg.WireRate(800_000))
	}
	if got := e.TotalBandwidth(); got != 2*cfg.WireRate(800_000) {
		t.Fatalf("total bandwidth = %d, want both streams", got)
	}
}

func TestEdgeCloudLeaveFreesServerSlot(t *testing.T) {
	cfg := testConfig()
	dcs := twoDCs(cfg)
	center := cfg.Region.Center()
	server := core.NewEdgeServer(3_000_000, center, 100_000_000, 1)
	e, _ := NewEdgeCloud(cfg, dcs, []*core.Datacenter{server}, sim.NewRand(3))
	p := player(1, center, mustGame(t, 3))
	e.Join(p)
	e.Leave(p)
	if server.Available() != 1 {
		t.Fatal("server slot not freed")
	}
	// Slot is reusable.
	p2 := player(2, center, mustGame(t, 3))
	if a := e.Join(p2); a.Kind != core.AttachEdge {
		t.Fatal("freed slot not reused")
	}
}

// TestLatencyOrderingAcrossSystems checks the headline ordering the paper's
// Figure 8 reports: with the same population, Cloud has the highest average
// latency, EdgeCloud is lower (nearby servers), and CloudFog lower still
// (many nearby supernodes).
func TestLatencyOrderingAcrossSystems(t *testing.T) {
	cfg := testConfig()
	rng := sim.NewRand(42)
	placer := geo.DefaultUSPlacer()

	mean := func(sys core.System, players []*core.Player) float64 {
		var sum float64
		for _, p := range players {
			sys.Join(p)
		}
		for _, p := range players {
			sum += sys.NetworkLatency(p).Seconds()
		}
		for _, p := range players {
			sys.Leave(p)
		}
		return sum / float64(len(players))
	}

	// Paper-scale concurrency (~2000 online of 10,000): EdgeCloud's 45
	// servers saturate (capacity 40 each), as in the evaluation.
	makePlayers := func(base int64) []*core.Player {
		out := make([]*core.Player, 2000)
		for i := range out {
			out[i] = player(base+int64(i), placer.Place(rng), mustGame(t, 4))
		}
		return out
	}

	dcRng := sim.NewRand(7)
	dcPts := geo.SpreadPoints(cfg.Region, 5, dcRng)
	newDCs := func() []*core.Datacenter {
		dcs := make([]*core.Datacenter, len(dcPts))
		for i, pt := range dcPts {
			dcs[i] = core.NewDatacenter(2_000_000+int64(i), pt, cfg.DCEgress)
		}
		return dcs
	}

	cloud, _ := core.BuildFog(cfg, newDCs(), nil, sim.NewRand(8))
	cloudLat := mean(cloud, makePlayers(0))

	srvPts := geo.SpreadPoints(cfg.Region, 45, sim.NewRand(9))
	servers := make([]*core.Datacenter, len(srvPts))
	for i, pt := range srvPts {
		servers[i] = core.NewEdgeServer(3_000_000+int64(i), pt, 100_000_000, 40)
	}
	edge, _ := NewEdgeCloud(cfg, newDCs(), servers, sim.NewRand(10))
	edgeLat := mean(edge, makePlayers(10_000))

	snPts := geo.SpreadPoints(cfg.Region, 600, sim.NewRand(11))
	sns := make([]*core.Supernode, len(snPts))
	for i, pt := range snPts {
		sns[i] = core.NewSupernode(1_000_000+int64(i), pt, 5, 5*cfg.UplinkPerSlot)
	}
	fog, err := core.BuildFog(cfg, newDCs(), sns, sim.NewRand(12))
	if err != nil {
		t.Fatal(err)
	}
	fogLat := mean(fog, makePlayers(20_000))

	if !(cloudLat > edgeLat && edgeLat > fogLat) {
		t.Fatalf("latency ordering violated: cloud=%.1fms edge=%.1fms fog=%.1fms",
			cloudLat*1000, edgeLat*1000, fogLat*1000)
	}
}
