package health

import (
	"fmt"
	"time"

	"cloudfog/internal/obs"
)

// BreakerState is the classic circuit-breaker triple.
type BreakerState int

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerConfig parameterizes the cloud-fallback circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures open the breaker.
	FailureThreshold int
	// OpenFor is how long the breaker stays open before the next probe
	// window — the deterministic probe schedule: exactly one transition to
	// half-open every OpenFor after the last failure.
	OpenFor time.Duration
	// HalfOpenProbes caps how many requests one half-open window admits.
	HalfOpenProbes int
	// SuccessThreshold is how many probe successes close the breaker.
	SuccessThreshold int
}

// DefaultBreakerConfig returns the canonical breaker tuning.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{
		FailureThreshold: 3,
		OpenFor:          30 * time.Second,
		HalfOpenProbes:   1,
		SuccessThreshold: 1,
	}
}

// Validate reports configuration errors.
func (c BreakerConfig) Validate() error {
	switch {
	case c.FailureThreshold < 1:
		return fmt.Errorf("health: FailureThreshold %d < 1", c.FailureThreshold)
	case c.OpenFor <= 0:
		return fmt.Errorf("health: OpenFor %v is not positive", c.OpenFor)
	case c.HalfOpenProbes < 1:
		return fmt.Errorf("health: HalfOpenProbes %d < 1", c.HalfOpenProbes)
	case c.SuccessThreshold < 1:
		return fmt.Errorf("health: SuccessThreshold %d < 1", c.SuccessThreshold)
	}
	return nil
}

// Breaker is a time-fed circuit breaker: every decision takes the current
// time as a parameter, so the same breaker runs on the sim clock and on
// wall-clock offsets, and the probe schedule is fully deterministic.
// Not safe for concurrent use.
type Breaker struct {
	cfg      BreakerConfig
	state    BreakerState
	failures int
	succ     int
	openedAt time.Duration
	probes   int
	stats    *obs.HealthStats
}

// NewBreaker builds a breaker; zero-value cfg means defaults. stats may be
// nil.
func NewBreaker(cfg BreakerConfig, stats *obs.HealthStats) (*Breaker, error) {
	if cfg == (BreakerConfig{}) {
		cfg = DefaultBreakerConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{cfg: cfg, stats: stats}, nil
}

// State returns the breaker state at now, applying the open→half-open
// transition if the open window has elapsed.
func (b *Breaker) State(now time.Duration) BreakerState {
	if b.state == BreakerOpen && now-b.openedAt >= b.cfg.OpenFor {
		b.state = BreakerHalfOpen
		b.probes = 0
		b.succ = 0
	}
	return b.state
}

// Allow reports whether a request may pass at now. In half-open it admits at
// most HalfOpenProbes probes per window; everything else waits for the
// probes' verdict.
func (b *Breaker) Allow(now time.Duration) bool {
	switch b.State(now) {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			if b.stats != nil {
				b.stats.BreakerProbes.Inc()
			}
			return true
		}
		b.reject(now)
		return false
	default:
		b.reject(now)
		return false
	}
}

func (b *Breaker) reject(now time.Duration) {
	if b.stats != nil {
		b.stats.BreakerRejects.Inc()
	}
}

// RecordSuccess feeds a request outcome. Enough half-open successes close
// the breaker.
func (b *Breaker) RecordSuccess(now time.Duration) {
	switch b.State(now) {
	case BreakerClosed:
		b.failures = 0
	case BreakerHalfOpen:
		b.succ++
		if b.succ >= b.cfg.SuccessThreshold {
			b.state = BreakerClosed
			b.failures = 0
			b.succ = 0
		}
	}
}

// RecordFailure feeds a request outcome. Consecutive closed-state failures
// past the threshold — or any half-open probe failure — open the breaker and
// restart the probe clock at now.
func (b *Breaker) RecordFailure(now time.Duration) {
	switch b.State(now) {
	case BreakerClosed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip(now)
		}
	case BreakerHalfOpen:
		b.trip(now)
	case BreakerOpen:
		// A straggler from before the trip; the clock does not restart.
	}
}

func (b *Breaker) trip(now time.Duration) {
	b.state = BreakerOpen
	b.openedAt = now
	b.failures = 0
	b.succ = 0
	if b.stats != nil {
		b.stats.BreakerOpens.Inc()
	}
}
