// Package health implements the self-protective mechanisms layered on the
// CloudFog control plane: heartbeat-based failure detection (phi-accrual and
// plain-timeout, replacing the fault injector's oracle detection-delay draw)
// and the supernode overload-degradation ladder. Every component is a pure
// function of the timestamps it is fed, so
// the same code runs on the deterministic sim engine and against wall-clock
// time on the live plane.
package health

import (
	"fmt"
	"math"
	"time"
)

// Mode selects the failure-detection algorithm.
type Mode int

const (
	// ModeOracle keeps the fault injector's PR-4 behavior: detection delay
	// is a uniform draw in (0, Detect], no heartbeats exist. The monitor is
	// never constructed in this mode.
	ModeOracle Mode = iota
	// ModeTimeout suspects a node once no heartbeat arrived for
	// TimeoutFactor heartbeat intervals.
	ModeTimeout
	// ModePhi is phi-accrual detection: suspicion when the phi value of the
	// current heartbeat silence crosses PhiThreshold.
	ModePhi
)

// ParseMode maps a CLI flag string onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "oracle":
		return ModeOracle, nil
	case "timeout":
		return ModeTimeout, nil
	case "phi":
		return ModePhi, nil
	}
	return ModeOracle, fmt.Errorf("health: unknown detector mode %q (oracle|timeout|phi)", s)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOracle:
		return "oracle"
	case ModeTimeout:
		return "timeout"
	case ModePhi:
		return "phi"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DetectorConfig parameterizes one failure detector.
type DetectorConfig struct {
	Mode Mode
	// Interval is the heartbeat send period.
	Interval time.Duration
	// Window is the inter-arrival sample window (phi mode).
	Window int
	// PhiThreshold is the suspicion level (phi mode). Phi 6 means the
	// detector estimates a 1-in-10^6 chance the node is still alive.
	PhiThreshold float64
	// TimeoutFactor is the silence threshold in heartbeat intervals
	// (timeout mode).
	TimeoutFactor float64
	// MaxSilence is a hard suspicion cap in both modes: a node silent this
	// long is suspected regardless of the adaptive estimate, which makes
	// Bound provable whatever variance loss injected into the window.
	MaxSilence time.Duration
	// CheckEvery is the evaluation cadence.
	CheckEvery time.Duration
}

// Validate reports configuration errors. Zero fields are valid (Defaulted
// fills them); a Mode outside the three known ones is not — Suspect would
// silently fall back to the MaxSilence cap alone.
func (c DetectorConfig) Validate() error {
	switch c.Mode {
	case ModeOracle, ModeTimeout, ModePhi:
	default:
		return fmt.Errorf("health: DetectorConfig.Mode %d is not oracle (%d), timeout (%d) or phi (%d)",
			int(c.Mode), int(ModeOracle), int(ModeTimeout), int(ModePhi))
	}
	if c.Interval < 0 {
		return fmt.Errorf("health: DetectorConfig.Interval %v is negative", c.Interval)
	}
	return nil
}

// sigmaFloorFrac keeps the phi denominator meaningful when heartbeats arrive
// with (near-)zero jitter, as deterministic sim heartbeats do: the standard
// deviation never drops below this fraction of the mean interval. The floor
// also sets the detection point — phi crosses 6 at mean + 4.75 sigma, i.e.
// ~2.7 intervals of silence — strictly earlier than the 3.5-interval timeout
// while still clearing the 2-interval silence a single lost heartbeat causes.
const sigmaFloorFrac = 0.35

// phiAtMeanGap is log₁₀2 = 0.30103 rounded up: the most Phi can say of a
// silence that has not outlasted the mean gap.
const phiAtMeanGap = 0.302

// Defaulted fills zero fields with the canonical values.
func (c DetectorConfig) Defaulted() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.PhiThreshold <= 0 {
		c.PhiThreshold = 6
	}
	if c.TimeoutFactor <= 0 {
		c.TimeoutFactor = 3.5
	}
	if c.MaxSilence <= 0 {
		c.MaxSilence = 6 * c.Interval
	}
	if c.CheckEvery <= 0 {
		c.CheckEvery = c.Interval / 4
		if c.CheckEvery <= 0 {
			c.CheckEvery = c.Interval
		}
	}
	return c
}

// Bound returns the provable worst-case detection latency measured from the
// moment a node dies: the silence since the last heartbeat reaches MaxSilence
// at the latest (the hard cap fires even if the adaptive estimate has been
// inflated by lossy intervals), and the evaluation ticker adds at most one
// check period on top.
func (c DetectorConfig) Bound() time.Duration {
	c = c.Defaulted()
	return c.MaxSilence + c.CheckEvery
}

// Detector tracks one node's heartbeat history. It is a passive value: feed
// it Heartbeat timestamps and ask Suspect at evaluation points. Time is any
// monotonic Duration clock — the sim engine's virtual now or a wall-clock
// offset — which is what lets the sim and live paths share the arithmetic.
type Detector struct {
	// cfg is read-only and may be shared: a Monitor's detectors all point at
	// its one copy.
	cfg  *DetectorConfig
	last time.Duration
	// Inter-arrival window, a running ring over the last cfg.Window gaps.
	gaps  []time.Duration
	next  int
	sum   float64 // seconds
	sumSq float64 // seconds^2
	seen  bool
	// sync marks the first heartbeat after a Reset as a phase re-base: its
	// gap spans only the remainder of the node's send phase, and letting that
	// partial interval into a near-empty window collapses the phi mean and
	// fires a false positive one silence later.
	sync bool
}

// NewDetector returns a detector with its own copy of the (defaulted) config.
func NewDetector(cfg DetectorConfig) *Detector {
	cfg = cfg.Defaulted()
	return &Detector{cfg: &cfg, gaps: make([]time.Duration, 0, cfg.Window)}
}

// Reset clears the history and re-bases the silence clock at now — used when
// a recovered node re-registers as a fresh instance.
func (d *Detector) Reset(now time.Duration) {
	d.gaps = d.gaps[:0]
	d.next = 0
	d.sum, d.sumSq = 0, 0
	d.last = now
	d.seen = true
	d.sync = true
}

// Heartbeat records an arrival at now.
func (d *Detector) Heartbeat(now time.Duration) {
	if !d.seen || d.sync {
		d.seen = true
		d.sync = false
		d.last = now
		return
	}
	gap := now - d.last
	d.last = now
	if gap <= 0 {
		return
	}
	// Arrival bursts — a paused receiver draining its queue delivers many
	// heartbeats almost at once — would collapse the window mean and make
	// the sender's normal cadence look like death afterward. A gap far below
	// the configured send interval says nothing about the sender's cadence,
	// only about delivery batching: re-base the silence clock but keep it
	// out of the statistics.
	if gap < d.cfg.Interval/4 {
		return
	}
	gs := gap.Seconds()
	if len(d.gaps) < cap(d.gaps) {
		d.gaps = append(d.gaps, gap)
	} else {
		old := d.gaps[d.next].Seconds()
		d.sum -= old
		d.sumSq -= old * old
		d.gaps[d.next] = gap
	}
	d.next = (d.next + 1) % cap(d.gaps)
	d.sum += gs
	d.sumSq += gs * gs
}

// mean returns the estimated inter-arrival mean in seconds, falling back to
// the configured interval before any sample exists.
func (d *Detector) mean() float64 {
	if len(d.gaps) == 0 {
		return d.cfg.Interval.Seconds()
	}
	return d.sum / float64(len(d.gaps))
}

// Phi returns the phi-accrual suspicion level of the current silence:
// -log10 of the Gaussian tail probability that a live node would stay silent
// this long, with the sigma floor keeping zero-jitter windows sane.
func (d *Detector) Phi(now time.Duration) float64 {
	if !d.seen {
		return 0
	}
	elapsed := (now - d.last).Seconds()
	if elapsed <= 0 {
		return 0
	}
	m := d.mean()
	sigma := sigmaFloorFrac * m
	if n := float64(len(d.gaps)); n > 1 {
		if v := d.sumSq/n - (d.sum/n)*(d.sum/n); v > sigma*sigma {
			sigma = math.Sqrt(v)
		}
	}
	if sigma <= 0 {
		return 0
	}
	z := (elapsed - m) / sigma
	tail := 0.5 * math.Erfc(z/math.Sqrt2)
	if tail <= 0 {
		return math.Inf(1)
	}
	return -math.Log10(tail)
}

// Suspect reports whether the detector considers the node failed at now.
func (d *Detector) Suspect(now time.Duration) bool {
	if !d.seen {
		return false
	}
	silence := now - d.last
	if silence >= d.cfg.MaxSilence {
		return true
	}
	switch d.cfg.Mode {
	case ModeTimeout:
		return silence.Seconds() >= d.cfg.TimeoutFactor*d.cfg.Interval.Seconds()
	case ModePhi:
		// A silence no longer than the mean gap puts z at or below 0, so
		// Erfc(z/√2) ≥ 1, the tail is ≥ ½ and φ ≤ log₁₀2: under any threshold
		// above that the answer is no, and nearly every detector of a sweep
		// is asked inside one gap of its last heartbeat. A threshold the bound
		// does not clear takes the arithmetic.
		if d.cfg.PhiThreshold > phiAtMeanGap && silence.Seconds() <= d.mean() {
			return false
		}
		return d.Phi(now) >= d.cfg.PhiThreshold
	default:
		return false
	}
}
