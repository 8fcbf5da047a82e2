package core

import (
	"fmt"
	"time"

	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/stream"
	"cloudfog/internal/trace"
)

// Config holds the infrastructure parameters of a CloudFog deployment.
type Config struct {
	// Latency supplies one-way latencies: the synthetic PlanetLab-like
	// model, or a test's own source.
	Latency trace.Source
	// Region is the deployment area.
	Region geo.Region
	// Locator models the cloud's IP-geolocation accuracy for the
	// supernode shortlist step.
	Locator geo.Locator
	// Stream carries segment/packet sizing.
	Stream stream.Config

	// Candidates is how many geographically-closest supernodes the cloud
	// returns to a joining player for probing (paper: "its physically
	// close supernodes").
	Candidates int
	// LmaxFactor scales a game's network budget into the player's
	// supernode-delay threshold L_max: the video hop must leave room for
	// the cloud→supernode update hop, so L_max < budget.
	LmaxFactor float64
	// UplinkPerSlot is the supernode uplink bandwidth provisioned per
	// capacity slot, bits/second. A supernode with capacity C_j has
	// uplink C_j × UplinkPerSlot.
	UplinkPerSlot int64
	// DCEgress is each datacenter's video egress bandwidth, bits/second.
	DCEgress int64
	// UpdateBandwidth is Λ: the cloud→supernode update traffic per
	// active supernode, bits/second.
	UpdateBandwidth int64
	// StreamOverhead multiplies video bitrate into wire bandwidth
	// (packetization, retransmission).
	StreamOverhead float64
	// Obs, when non-nil, counts assignment-protocol outcomes (join kind,
	// failover repair kind) and emits assign / failover events. The
	// protocol pays one nil-check per outcome when disabled; counters never
	// influence assignment decisions.
	Obs *obs.AssignStats

	// Overload, when non-nil, runs the supernode degradation ladder: the
	// fog feeds it slot occupancy on every attach/detach and honors its
	// admission, backup-duty, level-cap and migration verdicts. Nil keeps
	// the PR-4 binary capacity check bit-identical.
	Overload *health.Overload
	// Now is read by nothing: the ladder takes its clock through
	// health.NewOverload. It stays only because bench/ sets it.
	Now func() time.Duration
	// Health, when non-nil, counts admission-control rejections and
	// overload migrations (cloudfog_health_*).
	Health *obs.HealthStats
}

// DefaultConfig returns the configuration used by the paper-scale
// simulations. The latency model is seeded by the caller.
func DefaultConfig(seed int64) Config {
	return Config{
		Latency:         trace.DefaultModel(seed),
		Region:          geo.USRegion(),
		Locator:         geo.Locator{Region: geo.USRegion(), ErrorSigma: 30},
		Stream:          stream.DefaultConfig(),
		Candidates:      15,
		LmaxFactor:      0.8,
		UplinkPerSlot:   2_500_000, // 2.5 Mbps per supported player
		DCEgress:        400_000_000,
		UpdateBandwidth: 50_000, // Λ = 50 kbps per supernode
		StreamOverhead:  1.1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Candidates < 1:
		return fmt.Errorf("core: Candidates %d < 1", c.Candidates)
	case c.LmaxFactor <= 0 || c.LmaxFactor > 1:
		return fmt.Errorf("core: LmaxFactor %v outside (0,1]", c.LmaxFactor)
	case c.UplinkPerSlot <= 0:
		return fmt.Errorf("core: non-positive UplinkPerSlot %d", c.UplinkPerSlot)
	case c.DCEgress <= 0:
		return fmt.Errorf("core: non-positive DCEgress %d", c.DCEgress)
	case c.UpdateBandwidth < 0:
		return fmt.Errorf("core: negative UpdateBandwidth %d", c.UpdateBandwidth)
	case c.StreamOverhead < 1:
		return fmt.Errorf("core: StreamOverhead %v < 1", c.StreamOverhead)
	case c.Latency == nil:
		return fmt.Errorf("core: nil latency source")
	}
	return c.Stream.Validate()
}

// Lmax returns the player's supernode-delay threshold L_max for a game with
// the given network budget (paper §III-A3: the node determines L_max from
// its game's genre).
func (c Config) Lmax(networkBudget time.Duration) time.Duration {
	return time.Duration(float64(networkBudget) * c.LmaxFactor)
}

// WireRate converts a video bitrate into consumed wire bandwidth.
func (c Config) WireRate(bitrate int64) int64 {
	return int64(float64(bitrate) * c.StreamOverhead)
}
