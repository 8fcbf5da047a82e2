package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

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
			a.Players[i].Downlink != b.Players[i].Downlink {
			t.Fatalf("populations diverge at player %d", i)
		}
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

// populationDigest hashes everything Generate decides: each player's ID,
// position bits, downlink and capable flag, and the Capable order.
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
	return hex.EncodeToString(h.Sum(nil))
}

// TestPopulationGolden pins the population to digests recorded while the
// friend graph still existed: Generate still draws that graph's seed, so every
// stream after it — and every world built on the population — is unmoved.
func TestPopulationGolden(t *testing.T) {
	for _, tc := range []struct {
		players int
		seed    int64
		want    string
	}{
		{2500, 2027, "499820aca64797b14e93b7d107c26ef39e1e5cb2b997d0a661219e8aabd6e07a"},
		{2500, 8, "80aaafc2f2ba69304c3f58adf78f854ed0fc42997f97c545544e912947b0fcb5"},
		{20000, 2027, "022934dae39ae9aa52aea3b38f13640efaf0f82a1cc9c699a3e3f3ae2769450a"},
		{20000, 8, "e3c00931809b249c53fe163d282f51eb32d6d003e723895d654f8f8f58d14079"},
	} {
		cfg := DefaultConfig(tc.seed)
		cfg.Players = tc.players
		pop, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := populationDigest(pop); got != tc.want {
			t.Fatalf("%d players, seed %d: population digest %s, want %s", tc.players, tc.seed, got, tc.want)
		}
	}
}
