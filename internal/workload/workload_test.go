package workload

import (
	"math"
	"testing"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Players = 1000
	return cfg
}

func TestGenerateValidation(t *testing.T) {
	bad := DefaultConfig(1)
	bad.Players = 0
	if _, err := Generate(bad); err == nil {
		t.Fatal("zero players accepted")
	}
	bad = DefaultConfig(1)
	bad.Placer = nil
	if _, err := Generate(bad); err == nil {
		t.Fatal("nil placer accepted")
	}
	bad = DefaultConfig(1)
	bad.SupernodeFraction = 1.5
	if _, err := Generate(bad); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
}

func TestGeneratePopulationShape(t *testing.T) {
	pop, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Players) != 1000 {
		t.Fatalf("players = %d, want 1000", len(pop.Players))
	}
	// ~10% supernode-capable.
	frac := float64(len(pop.Capable)) / 1000
	if frac < 0.06 || frac > 0.14 {
		t.Fatalf("capable fraction = %v, want ~0.10", frac)
	}
	region := geo.USRegion()
	ids := map[int64]bool{}
	for _, p := range pop.Players {
		if !region.Contains(p.Pos) {
			t.Fatalf("player %d outside region", p.ID)
		}
		if p.Downlink <= 0 {
			t.Fatalf("player %d has non-positive downlink", p.ID)
		}
		if len(p.Friends) < 1 {
			t.Fatalf("player %d has no friends", p.ID)
		}
		if ids[p.ID] {
			t.Fatalf("duplicate player id %d", p.ID)
		}
		ids[p.ID] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallConfig(5))
	b, _ := Generate(smallConfig(5))
	for i := range a.Players {
		if a.Players[i].Pos != b.Players[i].Pos ||
			a.Players[i].Downlink != b.Players[i].Downlink ||
			len(a.Players[i].Friends) != len(b.Players[i].Friends) {
			t.Fatalf("populations diverge at player %d", i)
		}
	}
}

func TestFriendsAreValidAndDistinct(t *testing.T) {
	pop, _ := Generate(smallConfig(2))
	for _, p := range pop.Players {
		seen := map[int64]bool{}
		for _, f := range p.Friends {
			if f == p.ID {
				t.Fatalf("player %d is its own friend", p.ID)
			}
			if f < PlayerIDBase || f >= PlayerIDBase+1000 {
				t.Fatalf("friend id %d out of range", f)
			}
			if seen[f] {
				t.Fatalf("player %d has duplicate friend %d", p.ID, f)
			}
			seen[f] = true
		}
	}
}

func TestFriendCountsSkewed(t *testing.T) {
	pop, _ := Generate(smallConfig(3))
	// For a power law with skew 0.5 on [1,100]: P(k<=10) ~= 0.26 while
	// P(k>=91) ~= 0.06 — the bottom decile is ~4x more likely than the top.
	few, many := 0, 0
	for _, p := range pop.Players {
		if len(p.Friends) <= 10 {
			few++
		}
		if len(p.Friends) >= 91 {
			many++
		}
	}
	if few <= 2*many {
		t.Fatalf("friend counts not power-law skewed: few=%d many=%d", few, many)
	}
}

func TestDownlinkMedianCalibrated(t *testing.T) {
	pop, _ := Generate(smallConfig(4))
	below := 0
	for _, p := range pop.Players {
		if p.Downlink <= 20_000_000 {
			below++
		}
	}
	frac := float64(below) / float64(len(pop.Players))
	if math.Abs(frac-0.5) > 0.06 {
		t.Fatalf("downlink median calibration off: %.3f below 20Mbps", frac)
	}
}

func TestBuildSupernodes(t *testing.T) {
	pop, _ := Generate(smallConfig(6))
	rng := sim.NewRand(9)
	sns, err := pop.BuildSupernodes(50, 2_500_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sns) != 50 {
		t.Fatalf("built %d supernodes, want 50", len(sns))
	}
	ids := map[int64]bool{}
	var capSum float64
	for _, sn := range sns {
		if sn.Capacity < 1 {
			t.Fatal("supernode with capacity < 1")
		}
		if sn.Uplink != int64(sn.Capacity)*2_500_000 {
			t.Fatalf("uplink %d not capacity-proportional", sn.Uplink)
		}
		if ids[sn.ID] {
			t.Fatalf("duplicate supernode id %d", sn.ID)
		}
		ids[sn.ID] = true
		if sn.ID < SupernodeIDBase {
			t.Fatalf("supernode id %d below base", sn.ID)
		}
		capSum += float64(sn.Capacity)
	}
	// Pareto mean ~5.
	if mean := capSum / 50; mean < 2 || mean > 12 {
		t.Fatalf("capacity mean = %v, implausible for Pareto(mean 5)", mean)
	}
	// Positions coincide with capable players' machines.
	capablePos := map[geo.Point]bool{}
	for _, i := range pop.Capable {
		capablePos[pop.Players[i].Pos] = true
	}
	for _, sn := range sns {
		if !capablePos[sn.Pos] {
			t.Fatalf("supernode %d not located at a capable player", sn.ID)
		}
	}
}

func TestBuildSupernodesTooMany(t *testing.T) {
	pop, _ := Generate(smallConfig(7))
	if _, err := pop.BuildSupernodes(len(pop.Capable)+1, 2_500_000, sim.NewRand(1)); err == nil {
		t.Fatal("overcommitted supernode selection accepted")
	}
}

// fakeSystem counts joins/leaves for churn tests.
type fakeSystem struct {
	online map[int64]*core.Player
}

func newFakeSystem() *fakeSystem { return &fakeSystem{online: map[int64]*core.Player{}} }

func (f *fakeSystem) Name() string { return "fake" }
func (f *fakeSystem) Join(p *core.Player) core.Attachment {
	p.Online = true
	f.online[p.ID] = p
	return core.Attachment{Kind: core.AttachCloud}
}
func (f *fakeSystem) Leave(p *core.Player) {
	p.Online = false
	delete(f.online, p.ID)
}
func (f *fakeSystem) NetworkLatency(*core.Player) time.Duration { return 0 }
func (f *fakeSystem) CloudBandwidth() int64                     { return 0 }

func TestChurnDrivesSessions(t *testing.T) {
	pop, _ := Generate(smallConfig(10))
	engine := sim.New()
	sys := newFakeSystem()
	churn := NewChurn(engine, sys, pop, 5, sim.NewRand(11))
	churn.Start()
	engine.RunUntil(10 * time.Minute)

	// Poisson rate 5/s for 600s => ~3000 joins, but the 1000-player pool
	// caps concurrency; joins only fire when someone is offline.
	if churn.Joins() < 1000 {
		t.Fatalf("joins = %d, expected over 1000 in 10 minutes", churn.Joins())
	}
	if churn.Leaves() > churn.Joins() {
		t.Fatal("more leaves than joins")
	}
	online := 0
	for _, p := range pop.Players {
		if p.Online {
			online++
		}
	}
	if online != len(sys.online) {
		t.Fatalf("online bookkeeping mismatch: %d vs %d", online, len(sys.online))
	}
	if uint64(online) != churn.Joins()-churn.Leaves() {
		t.Fatalf("online %d != joins-leaves %d", online, churn.Joins()-churn.Leaves())
	}
}

func TestChurnPlayersRejoin(t *testing.T) {
	cfg := smallConfig(12)
	cfg.Players = 5 // tiny pool: everyone must cycle
	pop, _ := Generate(cfg)
	engine := sim.New()
	churn := NewChurn(engine, newFakeSystem(), pop, 5, sim.NewRand(13))
	churn.Start()
	engine.RunUntil(48 * time.Hour)
	if churn.Joins() < 10 {
		t.Fatalf("joins = %d; players are not cycling through sessions", churn.Joins())
	}
}

func TestChooseGameFollowsFriends(t *testing.T) {
	pop, _ := Generate(smallConfig(14))
	engine := sim.New()
	churn := NewChurn(engine, newFakeSystem(), pop, 5, sim.NewRand(15))

	p := pop.Players[0]
	g3, _ := game.ByID(3)
	g5, _ := game.ByID(5)
	// Two friends online playing game 3, one playing game 5.
	if len(p.Friends) < 3 {
		f1, f2, f3 := pop.Players[1], pop.Players[2], pop.Players[3]
		p.Friends = []int64{f1.ID, f2.ID, f3.ID}
	}
	for i, fid := range p.Friends[:3] {
		f := pop.Players[fid-PlayerIDBase]
		f.Online = true
		if i < 2 {
			f.Game = g3
		} else {
			f.Game = g5
		}
	}
	if got := churn.ChooseGame(p); got.ID != 3 {
		t.Fatalf("chose game %d, want friends' majority game 3", got.ID)
	}
}

func TestChooseGameRandomWithoutFriendsOnline(t *testing.T) {
	pop, _ := Generate(smallConfig(16))
	engine := sim.New()
	churn := NewChurn(engine, newFakeSystem(), pop, 5, sim.NewRand(17))
	counts := map[int]int{}
	p := pop.Players[0]
	for _, fid := range p.Friends {
		pop.Players[fid-PlayerIDBase].Online = false
	}
	for i := 0; i < 1000; i++ {
		counts[churn.ChooseGame(p).ID]++
	}
	for id := 1; id <= 5; id++ {
		if counts[id] < 100 {
			t.Fatalf("game %d chosen %d/1000 times; random fallback not uniform", id, counts[id])
		}
	}
}
