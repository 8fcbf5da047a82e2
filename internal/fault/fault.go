// Package fault is the deterministic fault-injection subsystem: it compiles
// declarative *fault profiles* — supernode crash/recover processes, Gilbert–
// Elliott loss bursts, latency spikes, bandwidth collapse and regional
// partitions — into a fully materialized event schedule. One interpreter
// applies it, driven from two clocks:
//
//   - Injector replays it on the internal/sim engine against a real
//     core.Fog, exercising the paper's Register/Deregister/failover paths
//     (§III-A3: backups exist precisely because supernodes churn).
//   - RunWall replays it in wall-clock time against the internal/live
//     runtime (kill/restart supernode processes, impair live links), so
//     simulated and testbed chaos share one schedule and one set of rules.
//
// Determinism contract: every random draw happens at Compile time from a
// single seed-keyed stream (one Fork per spec, in spec order), so the same
// (profile, targets) pair always yields the bit-identical event list — the
// schedule IS the injected-event log. Runtime impairment lookups
// (ExtraLatency/LossFrac/BandwidthScale) are pure functions of the query
// time, safe for parallel figure sweeps. The only runtime randomness is the
// Injector's per-orphan detection delay, drawn from an engine-ordered stream
// the caller seeds.
package fault

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Duration wraps time.Duration so profiles read and write Go duration
// strings ("45s", "5m") in JSON; a bare number is taken as nanoseconds.
type Duration struct{ time.Duration }

// Dur wraps a time.Duration.
func Dur(d time.Duration) Duration { return Duration{d} }

// MarshalJSON emits the duration string form.
func (d Duration) MarshalJSON() ([]byte, error) { return json.Marshal(d.String()) }

// UnmarshalJSON accepts "45s" strings or nanosecond numbers.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("fault: bad duration %q: %w", x, err)
		}
		d.Duration = parsed
	case float64:
		d.Duration = time.Duration(x)
	default:
		return fmt.Errorf("fault: duration must be a string or number, got %T", v)
	}
	return nil
}

// Kind discriminates fault specs.
type Kind string

const (
	// KindCrash kills supernodes and later recovers them. Two modes:
	// exponential MTTF/MTTR lifetimes per targeted supernode, or a
	// deterministic Period cadence picking one random target per period
	// with a fixed MTTR downtime.
	KindCrash Kind = "crash"
	// KindLoss is a Gilbert–Elliott packet-loss process: exponential
	// good/bad sojourns (MeanGood/MeanBad) with LossFrac loss during bad
	// windows, applied to every segment on the wire.
	KindLoss Kind = "loss"
	// KindLatency adds Extra one-way latency during bad windows of the
	// same alternating good/bad process.
	KindLatency Kind = "latency"
	// KindBandwidth scales every serving node's uplink by Factor over
	// [Start, End): one window, the qoe bandwidth window.
	KindBandwidth Kind = "bandwidth"
	// KindPartition kills every supernode inside Region at Start and
	// recovers them at End — a regional outage.
	KindPartition Kind = "partition"
)

// Rect is an axis-aligned region in world kilometers, for partitions.
type Rect struct {
	X0 float64 `json:"x0"`
	Y0 float64 `json:"y0"`
	X1 float64 `json:"x1"`
	Y1 float64 `json:"y1"`
}

// Contains reports whether (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y float64) bool {
	return x >= r.X0 && x <= r.X1 && y >= r.Y0 && y <= r.Y1
}

// Spec is one fault process. Fields are shared across kinds; Validate
// rejects combinations the kind does not use incorrectly set.
type Spec struct {
	Kind Kind `json:"kind"`

	// Start/End bound the spec's active window. Zero End means the
	// profile's full duration.
	Start Duration `json:"start,omitempty"`
	End   Duration `json:"end,omitempty"`

	// Crash: exponential mode draws up-times with mean MTTF and down-times
	// with mean MTTR per targeted supernode; period mode (Period > 0)
	// kills one random target every Period with a fixed MTTR downtime.
	// Detect is the failure-detection heartbeat interval: each orphan's
	// repair is delayed by a uniform draw in (0, Detect] (zero = the
	// graceful-leave case, orphans fail over synchronously).
	MTTF   Duration `json:"mttf,omitempty"`
	MTTR   Duration `json:"mttr,omitempty"`
	Period Duration `json:"period,omitempty"`
	Detect Duration `json:"detect,omitempty"`
	// TargetFrac is the fraction of supernodes subject to a crash spec,
	// chosen deterministically from the spec's stream. Zero means all.
	TargetFrac float64 `json:"target_frac,omitempty"`

	// Loss / latency: exponential sojourn means of the alternating
	// good/bad process, the bad-state loss fraction, and the bad-state
	// extra one-way latency.
	MeanGood Duration `json:"mean_good,omitempty"`
	MeanBad  Duration `json:"mean_bad,omitempty"`
	LossFrac float64  `json:"loss_frac,omitempty"`
	Extra    Duration `json:"extra,omitempty"`

	// Bandwidth: the uplink capacity multiplier during the window.
	Factor float64 `json:"factor,omitempty"`

	// Partition: the outage region.
	Region *Rect `json:"region,omitempty"`
}

// Profile is a complete fault scenario: a seed, a horizon, and the fault
// processes to compile onto it.
type Profile struct {
	Name     string   `json:"name"`
	Seed     int64    `json:"seed"`
	Duration Duration `json:"duration"`
	Specs    []Spec   `json:"specs"`
}

// Validate reports profile errors.
func (p *Profile) Validate() error {
	if p.Duration.Duration <= 0 {
		return fmt.Errorf("fault: profile duration %v is not positive", p.Duration.Duration)
	}
	for i := range p.Specs {
		if err := p.Specs[i].validate(); err != nil {
			return fmt.Errorf("fault: spec %d: %w", i, err)
		}
	}
	return nil
}

func (s *Spec) validate() error {
	if s.Start.Duration < 0 || s.End.Duration < 0 {
		return fmt.Errorf("negative start/end")
	}
	if s.End.Duration > 0 && s.End.Duration <= s.Start.Duration {
		return fmt.Errorf("end %v not after start %v", s.End.Duration, s.Start.Duration)
	}
	if s.TargetFrac < 0 || s.TargetFrac > 1 {
		return fmt.Errorf("target_frac %v outside [0,1]", s.TargetFrac)
	}
	switch s.Kind {
	case KindCrash:
		if s.MTTF.Duration <= 0 && s.Period.Duration <= 0 {
			return fmt.Errorf("crash needs mttf or period")
		}
		if s.MTTF.Duration > 0 && s.Period.Duration > 0 {
			return fmt.Errorf("crash takes mttf or period, not both")
		}
		if s.MTTR.Duration < 0 || s.Detect.Duration < 0 {
			return fmt.Errorf("negative mttr/detect")
		}
	case KindLoss:
		if s.MeanGood.Duration <= 0 || s.MeanBad.Duration <= 0 {
			return fmt.Errorf("loss needs positive mean_good and mean_bad")
		}
		if s.LossFrac <= 0 || s.LossFrac > 1 {
			return fmt.Errorf("loss_frac %v outside (0,1]", s.LossFrac)
		}
	case KindLatency:
		if s.MeanGood.Duration <= 0 || s.MeanBad.Duration <= 0 {
			return fmt.Errorf("latency needs positive mean_good and mean_bad")
		}
		if s.Extra.Duration <= 0 {
			return fmt.Errorf("latency needs positive extra")
		}
	case KindBandwidth:
		if s.Factor <= 0 || s.Factor > 1 {
			return fmt.Errorf("factor %v outside (0,1]", s.Factor)
		}
		if s.TargetFrac != 0 {
			return fmt.Errorf("bandwidth squeezes every uplink; target_frac %v is not applied", s.TargetFrac)
		}
	case KindPartition:
		if s.Region == nil || s.Region.X1 <= s.Region.X0 || s.Region.Y1 <= s.Region.Y0 {
			return fmt.Errorf("partition needs a non-degenerate region")
		}
	default:
		return fmt.Errorf("unknown kind %q", s.Kind)
	}
	return nil
}

// Parse decodes a profile from JSON and validates it.
func Parse(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: parse profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Load reads and parses a profile file.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return p, nil
}
