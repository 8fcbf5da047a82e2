package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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
	pop.BuildFriends()
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
	a.BuildFriends()
	b.BuildFriends()
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
	pop.BuildFriends()
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
	pop.BuildFriends()
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
		if sn.ID < SupernodeIDBase(len(pop.Players)) {
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

// populationDigest hashes everything Generate and BuildFriends decide: each
// player's ID, position bits, downlink and capable flag, the Capable order,
// and every friend list in order.
func populationDigest(pop *Population) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(pop.Players)))
	for _, p := range pop.Players {
		put(uint64(p.ID))
		put(math.Float64bits(p.Pos.X))
		put(math.Float64bits(p.Pos.Y))
		put(uint64(p.Downlink))
		if p.SupernodeCapable {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(len(pop.Capable)))
	for _, i := range pop.Capable {
		put(uint64(i))
	}
	for _, p := range pop.Players {
		put(uint64(len(p.Friends)))
		for _, f := range p.Friends {
			put(uint64(f))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopulationGolden pins the population — friend graph included — to the
// digests recorded when Generate built the graph itself, in its own loop with
// a set per player (PR 21). The graph built on demand must be that graph:
// whenever it is asked for, and once.
func TestPopulationGolden(t *testing.T) {
	for _, tc := range []struct {
		players int
		seed    int64
		want    string
	}{
		{2500, 2027, "b31fe27984248141840de58359f199b1d2b89de9ca4e2956851334582fbee57b"},
		{2500, 8, "4c4b0059f9e37e48e03551614a18d27f8cdd3053054d8a85185d1e340f472d61"},
		{20000, 2027, "82b937a9fa7b9d2e2243f17900f0770c3b35c66828e03af405c629cf1a82b02c"},
		{20000, 8, "02d3bbe3452696f5db8493bdc140849441179646504e141b3bb8494b0960125a"},
	} {
		cfg := DefaultConfig(tc.seed)
		cfg.Players = tc.players
		pop, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pop.Players {
			if p.Friends != nil {
				t.Fatalf("%d players, seed %d: Generate gave player %d friends", tc.players, tc.seed, p.ID)
			}
		}
		// Another consumer of the population draws from its own stream first.
		if _, err := pop.BuildSupernodes(tc.players/16, 2_500_000, sim.NewRand(tc.seed)); err != nil {
			t.Fatal(err)
		}
		pop.BuildFriends()
		if got := populationDigest(pop); got != tc.want {
			t.Fatalf("%d players, seed %d: population digest %s, want %s", tc.players, tc.seed, got, tc.want)
		}
		first := pop.Players[0].Friends
		pop.BuildFriends()
		if again := pop.Players[0].Friends; &again[0] != &first[0] || populationDigest(pop) != tc.want {
			t.Fatalf("%d players, seed %d: a second BuildFriends rebuilt the graph", tc.players, tc.seed)
		}
	}
}
