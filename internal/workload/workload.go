// Package workload generates the player population of the CloudFog
// evaluation (§IV): 10,000 players placed in metro clusters, 10% of them
// supernode-capable, with lognormal downlinks. The paper's session churn
// (Poisson joins, play-time mixture, friend-driven game choice) is not
// modelled: every figure joins a fixed population.
package workload

import (
	"fmt"
	"math"

	"cloudfog/internal/core"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

// Player, supernode, datacenter and edge-server IDs occupy four ranges one
// stride apart, so they stay disjoint; the latency trace keys per-node
// randomness by ID.
const (
	PlayerIDBase = 0

	// MaxPlayers is the largest population a core.Player's int32 ID can
	// index.
	MaxPlayers = math.MaxInt32
)

// idStride returns the distance between the ID ranges of a population: the
// smallest power of ten that holds every player, and never less than the
// 1 000 000 it was when a million players was the limit, so every ID — and
// every latency draw keyed by one — of a world that fitted then is unchanged.
// At MaxPlayers it is 10¹⁰.
func idStride(players int) int64 {
	stride := int64(1_000_000)
	for stride < int64(players) && stride < MaxPlayers {
		stride *= 10
	}
	return stride
}

// SupernodeIDBase, DatacenterIDBase and EdgeServerIDBase are where a
// population's supernode, datacenter and edge-server IDs start; a supernode
// is its base plus the ID of the player whose machine it is.
func SupernodeIDBase(players int) int64  { return idStride(players) }
func DatacenterIDBase(players int) int64 { return 2 * idStride(players) }
func EdgeServerIDBase(players int) int64 { return 3 * idStride(players) }

// Config parameterizes population generation.
type Config struct {
	Seed              int64
	Players           int
	SupernodeFraction float64
	Placer            geo.Placer
	// Downlink is lognormal across players, in bits/s; a player holds it in
	// 32 bits, so the median is at most math.MaxUint32.
	DownlinkMedian int64
	DownlinkSigma  float64
}

// DefaultConfig returns the paper's population: 10,000 metro-clustered
// players, 10% supernode-capable, 20 Mbps median downlink.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Players:           10_000,
		SupernodeFraction: 0.10,
		Placer:            geo.DefaultUSPlacer(),
		DownlinkMedian:    20_000_000,
		DownlinkSigma:     0.6,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Players < 1:
		return fmt.Errorf("workload: Players %d < 1", c.Players)
	case c.Players > MaxPlayers:
		return fmt.Errorf("workload: Players %d > %d: a player ID is 32 bits", c.Players, MaxPlayers)
	case c.SupernodeFraction < 0 || c.SupernodeFraction > 1:
		return fmt.Errorf("workload: SupernodeFraction %v outside [0,1]", c.SupernodeFraction)
	case c.Placer == nil:
		return fmt.Errorf("workload: nil Placer")
	case c.DownlinkMedian <= 0:
		return fmt.Errorf("workload: non-positive DownlinkMedian %d", c.DownlinkMedian)
	case c.DownlinkMedian > math.MaxUint32:
		return fmt.Errorf("workload: DownlinkMedian %d > %d: a player's downlink is 32 bits", c.DownlinkMedian, uint32(math.MaxUint32))
	}
	return nil
}

// Population is a generated player base.
type Population struct {
	// Players is the population in one allocation; a player's address is
	// &Players[i], stable for the population's life.
	Players []core.Player
	// Capable indexes the supernode-capable players.
	Capable []int
}

// Generate builds a deterministic population from the configuration. A
// downlink draw above math.MaxUint32 bits/s saturates there; the default
// (20 Mbit/s median, σ 0.6) reaches that limit only at more than 8σ.
func Generate(cfg Config) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRand(cfg.Seed)
	placeRng := rng.Fork()
	linkRng := rng.Fork()
	rng.Int63() // the retired friend graph's seed: capableRng must stay the stream it was
	capableRng := rng.Fork()

	pop := &Population{Players: make([]core.Player, cfg.Players)}
	for i := range pop.Players {
		p := &pop.Players[i]
		*p = core.Player{
			ID:       PlayerIDBase + int32(i),
			Pos:      cfg.Placer.Place(placeRng),
			Downlink: downlink(float64(cfg.DownlinkMedian) * lognormMultiplier(linkRng, cfg.DownlinkSigma)),
		}
		if capableRng.Float64() < cfg.SupernodeFraction {
			p.SupernodeCapable = true
			pop.Capable = append(pop.Capable, i)
		}
	}
	return pop, nil
}

// downlink truncates a drawn rate to whole bits/s, saturating at the 32-bit
// limit where a bare conversion would be undefined.
func downlink(bps float64) uint32 {
	if bps >= math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(bps)
}

func lognormMultiplier(r *sim.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return r.LogNormal(0, sigma)
}

// BuildSupernodes promotes n supernode-capable players' machines into
// supernodes: capacity C_j from the paper's Pareto (mean 5), uplink
// provisioned per capacity slot. It returns an error when the population
// has fewer than n capable players.
func (pop *Population) BuildSupernodes(n int, uplinkPerSlot int64, rng *sim.Rand) ([]*core.Supernode, error) {
	if n > len(pop.Capable) {
		return nil, fmt.Errorf("workload: want %d supernodes, only %d capable players", n, len(pop.Capable))
	}
	// Random selection without replacement from the capable set.
	perm := rng.Perm(len(pop.Capable))
	base := SupernodeIDBase(len(pop.Players))
	sns := make([]*core.Supernode, 0, n)
	for _, pi := range perm[:n] {
		p := &pop.Players[pop.Capable[pi]]
		capacity := int(rng.CapacityPareto() + 0.5)
		if capacity < 1 {
			capacity = 1
		}
		sn := core.NewSupernode(
			base+int64(p.ID),
			p.Pos,
			capacity,
			int64(capacity)*uplinkPerSlot,
		)
		sns = append(sns, sn)
	}
	return sns, nil
}
