// Package adapt implements CloudFog's receiver-driven encoding rate
// adaptation (paper §III-B, Eqs. 7-11).
//
// A player buffers received segments and plays them back; the occupancy of
// that buffer, measured in segments (r of Eq. 8), tells the supernode
// whether the download rate keeps up with the playback rate. When r exceeds
// 1+β for enough consecutive estimations the encoding bitrate steps up one
// ladder level; when r falls below θ it steps down, proactively trading
// video quality for playback continuity under congestion. Latency-sensitive
// games scale both thresholds by 1/ρ (ρ = latency tolerance degree), so
// they keep a larger safety buffer before risking a quality increase.
package adapt

import (
	"fmt"
	"time"

	"cloudfog/internal/game"
)

// Config parameterizes the adaptation controller. Zero-value fields are
// replaced by paper defaults in Controller.Init.
type Config struct {
	// Theta is the adjust-down threshold θ of Formula 11 (default 0.5).
	Theta float64
	// Beta is the adjust-up factor β of Eq. 10. Zero means "derive from
	// the quality ladder" (2/3 for the paper's Figure 2 ladder).
	Beta float64
	// UpStreak h₁ is how many consecutive estimations must satisfy the
	// adjust-up condition before the bitrate increases (default 100).
	UpStreak int
	// DownStreak h₂ is how many consecutive estimations must satisfy the
	// adjust-down condition before the bitrate decreases (default 10).
	DownStreak int
	// UseRho applies the per-game latency-tolerance scaling of the
	// thresholds (r > (1+β)/ρ and r < θ/ρ). Disabled it reduces to the
	// plain Formulas 9 and 11 — kept as an ablation switch.
	UseRho bool
}

// DefaultConfig returns the paper's defaults: θ = 0.5, h₁ = 100, h₂ = 10,
// β derived from the ladder, ρ scaling enabled.
func DefaultConfig() Config {
	return Config{Theta: 0.5, Beta: game.AdjustUpFactor(), UpStreak: 100, DownStreak: 10, UseRho: true}
}

// Decision is the outcome of one buffer-occupancy observation.
type Decision int

const (
	// Hold keeps the current encoding level.
	Hold Decision = iota
	// AdjustedUp increased the level by one.
	AdjustedUp
	// AdjustedDown decreased the level by one.
	AdjustedDown
)

// String names the decision.
func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case AdjustedUp:
		return "up"
	case AdjustedDown:
		return "down"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Controller runs the adaptation state machine for one player's stream.
type Controller struct {
	cfg        Config
	g          game.Game
	level      int // current ladder level
	maxLevel   int // game's matched level: quality never exceeds the latency requirement
	upStreak   int
	downStreak int
}

// Init readies the controller for the given game, starting at the game's
// matched ladder level. It overwrites every field, so value-embedded
// controllers (the QoE session arena) are re-initialized in place without a
// heap allocation.
func (c *Controller) Init(cfg Config, g game.Game) {
	if cfg.Theta == 0 {
		cfg.Theta = 0.5
	}
	if cfg.Beta == 0 {
		cfg.Beta = game.AdjustUpFactor()
	}
	if cfg.UpStreak == 0 {
		cfg.UpStreak = 100
	}
	if cfg.DownStreak == 0 {
		cfg.DownStreak = 10
	}
	*c = Controller{cfg: cfg, g: g, level: g.StartLevel, maxLevel: g.StartLevel}
}

// Level returns the current encoding operating point.
func (c *Controller) Level() game.QualityLevel { return game.MustLevelAt(c.level) }

// Game returns the game the controller adapts for.
func (c *Controller) Game() game.Game { return c.g }

// SetMaxLevel lowers the controller's ladder ceiling below the game's
// matched level — the overload ladder's per-supernode degradation cap. The
// current level clamps down immediately; the ceiling never rises above the
// game's matched level and never falls below 1.
func (c *Controller) SetMaxLevel(lvl int) {
	if lvl < 1 {
		lvl = 1
	}
	if lvl > c.g.StartLevel {
		lvl = c.g.StartLevel
	}
	c.maxLevel = lvl
	if c.level > lvl {
		c.level = lvl
	}
}

// UpThreshold returns the occupancy above which the controller counts
// toward an up-adjustment: (1+β), scaled by 1/ρ when ρ scaling is on.
func (c *Controller) UpThreshold() float64 {
	t := 1 + c.cfg.Beta
	if c.cfg.UseRho {
		t /= c.g.RhoLatency
	}
	return t
}

// DownThreshold returns the occupancy below which the controller counts
// toward a down-adjustment: θ, scaled by 1/ρ when ρ scaling is on.
func (c *Controller) DownThreshold() float64 {
	t := c.cfg.Theta
	if c.cfg.UseRho {
		t /= c.g.RhoLatency
	}
	return t
}

// Observe feeds one buffer-occupancy estimate r (in segments, Eq. 8) into
// the controller and returns the resulting decision. The bitrate only moves
// after UpStreak (resp. DownStreak) consecutive estimations satisfy the
// corresponding condition, preventing bitrate fluctuation (§III-B).
func (c *Controller) Observe(r float64) Decision {
	up := r > c.UpThreshold()
	down := r < c.DownThreshold()

	if up {
		c.upStreak++
	} else {
		c.upStreak = 0
	}
	if down {
		c.downStreak++
	} else {
		c.downStreak = 0
	}

	if c.upStreak >= c.cfg.UpStreak {
		c.upStreak = 0
		if c.level < c.maxLevel {
			c.level++
			return AdjustedUp
		}
		return Hold
	}
	if c.downStreak >= c.cfg.DownStreak {
		c.downStreak = 0
		if c.level > 1 {
			c.level--
			return AdjustedDown
		}
		return Hold
	}
	return Hold
}

// OccupancyEstimator implements Eq. 7's buffered-size estimate:
//
//	s(t_k) = s(t_{k-1}) + (t_k - t_{k-1})(d(t_k) - b_p(t_k))
//
// where d is the measured downloading rate and b_p the playback rate, both
// in bits per second. The estimate is clamped at zero: a buffer cannot hold
// negative video.
type OccupancyEstimator struct {
	bytes float64
	last  time.Duration
	init  bool
}

// Update advances the estimate to time now given the current download and
// playback rates (bits/second) and returns the estimated buffered bytes.
func (e *OccupancyEstimator) Update(now time.Duration, downloadBits, playbackBits float64) float64 {
	if !e.init {
		e.init = true
		e.last = now
		return e.bytes
	}
	dt := (now - e.last).Seconds()
	if dt < 0 {
		dt = 0
	}
	e.last = now
	e.bytes += dt * (downloadBits - playbackBits) / 8
	if e.bytes < 0 {
		e.bytes = 0
	}
	return e.bytes
}

// Bytes returns the current buffered-size estimate.
func (e *OccupancyEstimator) Bytes() float64 { return e.bytes }

// Segments converts the estimate into the occupancy r of Eq. 8, in units of
// segments of the given byte size τ.
func (e *OccupancyEstimator) Segments(segmentBytes int) float64 {
	if segmentBytes <= 0 {
		return 0
	}
	return e.bytes / float64(segmentBytes)
}
