package flight

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"cloudfog/internal/experiment"
	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/recfmt"
)

// RunSpec is the launch half of a recording: every input the simulator
// needs to reproduce a run. Zero/nil fields mean "paper default" and are
// filled by the experiment package exactly as the CLI's defaults are, so a
// spec encodes only what the original invocation actually pinned.
type RunSpec struct {
	Seed        int64
	Players     int
	Supernodes  int
	Datacenters int
	// Shards is the per-node QoE worker count; SweepWorkers bounds the
	// sweep pool. Both are recorded because they are part of the invocation,
	// even though figure bytes are invariant to them — a replay reproduces
	// the run as launched, and the what-if mode overrides them to prove the
	// invariance on a recorded incident.
	Shards       int
	SweepWorkers int

	Horizon    time.Duration
	Epoch      time.Duration // sharded-run barrier interval (0 = default)
	NodeBudget int           // figscale QoE node sample cap (0 = default, <0 = all)

	Detector string // "", "oracle", "timeout", "phi"
	Overload bool

	// BandwidthScale multiplies every provisioned egress/uplink capacity
	// (datacenter egress, edge-server egress, per-slot supernode uplink).
	// 0 or 1 means unscaled.
	BandwidthScale float64

	// Figures is the selection, in canonical registry names and order.
	// Empty means every figure.
	Figures []string

	// FaultProfile is the resilience figures' fault profile JSON (the
	// -faults file, verbatim); nil uses the built-in chaos profile.
	FaultProfile []byte
}

// Normalize validates the spec and rewrites the figure selection into
// canonical registry names and order.
func (s RunSpec) Normalize() (RunSpec, error) {
	figs, err := experiment.SelectFigures(strings.Join(s.Figures, ","))
	if err != nil {
		return s, err
	}
	names := make([]string, len(figs))
	for i, f := range figs {
		names[i] = f.Name
	}
	s.Figures = names
	if _, err := health.ParseMode(s.Detector); err != nil {
		return s, err
	}
	if s.BandwidthScale < 0 {
		return s, fmt.Errorf("flight: negative bandwidth scale %g", s.BandwidthScale)
	}
	if s.FaultProfile != nil {
		if _, err := fault.Parse(s.FaultProfile); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Summary is the one-line human description of the spec.
func (s RunSpec) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d players=%d supernodes=%d datacenters=%d shards=%d figures=%s",
		s.Seed, s.Players, s.Supernodes, s.Datacenters, s.Shards, strings.Join(s.Figures, ","))
	if s.Detector != "" && s.Detector != "oracle" {
		fmt.Fprintf(&b, " detector=%s", s.Detector)
	}
	if s.Overload {
		b.WriteString(" overload")
	}
	if s.BandwidthScale != 0 && s.BandwidthScale != 1 {
		fmt.Fprintf(&b, " bandwidth=%g", s.BandwidthScale)
	}
	if len(s.FaultProfile) > 0 {
		b.WriteString(" faults=custom")
	}
	return b.String()
}

// appendSpec encodes the spec. The layout is positional and belongs to the
// recording header's format version: a field is added or dropped only with a
// version bump, and Decode reads its own version alone.
func appendSpec(dst []byte, s RunSpec) []byte {
	dst = recfmt.AppendVarint(dst, s.Seed)
	dst = recfmt.AppendVarint(dst, int64(s.Players))
	dst = recfmt.AppendVarint(dst, int64(s.Supernodes))
	dst = recfmt.AppendVarint(dst, int64(s.Datacenters))
	dst = recfmt.AppendVarint(dst, int64(s.Shards))
	dst = recfmt.AppendVarint(dst, int64(s.SweepWorkers))
	dst = recfmt.AppendVarint(dst, int64(s.Horizon))
	dst = recfmt.AppendVarint(dst, int64(s.Epoch))
	dst = recfmt.AppendVarint(dst, int64(s.NodeBudget))
	dst = recfmt.AppendString(dst, s.Detector)
	dst = appendBool(dst, s.Overload)
	dst = recfmt.AppendFloat64(dst, s.BandwidthScale)
	dst = recfmt.AppendUvarint(dst, uint64(len(s.Figures)))
	for _, f := range s.Figures {
		dst = recfmt.AppendString(dst, f)
	}
	return recfmt.AppendBytes(dst, s.FaultProfile)
}

func decodeSpec(payload []byte) (RunSpec, error) {
	r := recfmt.NewReader(payload)
	var s RunSpec
	s.Seed = r.Varint()
	s.Players = int(r.Varint())
	s.Supernodes = int(r.Varint())
	s.Datacenters = int(r.Varint())
	s.Shards = int(r.Varint())
	s.SweepWorkers = int(r.Varint())
	s.Horizon = time.Duration(r.Varint())
	s.Epoch = time.Duration(r.Varint())
	s.NodeBudget = int(r.Varint())
	s.Detector = r.String()
	s.Overload = r.Uvarint() != 0
	s.BandwidthScale = r.Float64()
	if n := r.Count(); n > 0 {
		s.Figures = make([]string, n)
		for i := range s.Figures {
			s.Figures[i] = r.String()
		}
	}
	if b := r.Bytes(); len(b) > 0 {
		s.FaultProfile = append([]byte(nil), b...)
	}
	return s, r.Expect()
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return recfmt.AppendUvarint(dst, 1)
	}
	return recfmt.AppendUvarint(dst, 0)
}

// Knobs lists the what-if override keys, sorted.
func Knobs() []string {
	out := make([]string, 0, len(knobs))
	for k := range knobs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// knobs maps a what-if key to the function applying it to a spec.
var knobs = map[string]func(s *RunSpec, value string) error{
	"seed":        func(s *RunSpec, v string) error { return setInt64(&s.Seed, v) },
	"players":     func(s *RunSpec, v string) error { return setCount(&s.Players, "players", v) },
	"supernodes":  func(s *RunSpec, v string) error { return setCount(&s.Supernodes, "supernodes", v) },
	"datacenters": func(s *RunSpec, v string) error { return setCount(&s.Datacenters, "datacenters", v) },
	"shards":      func(s *RunSpec, v string) error { return setInt(&s.Shards, v) },
	"workers":     func(s *RunSpec, v string) error { return setInt(&s.SweepWorkers, v) },
	"nodebudget":  func(s *RunSpec, v string) error { return setInt(&s.NodeBudget, v) },
	"horizon":     func(s *RunSpec, v string) error { return setSpan(&s.Horizon, "horizon", v, false) },
	"epoch":       func(s *RunSpec, v string) error { return setSpan(&s.Epoch, "epoch", v, true) },
	"detector": func(s *RunSpec, v string) error {
		if _, err := health.ParseMode(v); err != nil {
			return err
		}
		s.Detector = v
		return nil
	},
	"overload": func(s *RunSpec, v string) error { return setBool(&s.Overload, v) },
	"bandwidth": func(s *RunSpec, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f <= 0 {
			return fmt.Errorf("flight: bandwidth scale %q is not a positive number", v)
		}
		s.BandwidthScale = f
		return nil
	},
}

// Override returns a copy of the spec with exactly one knob changed. The
// key accepts "key=value" in one argument or separate key and value.
func (s RunSpec) Override(key, value string) (RunSpec, error) {
	if value == "" {
		if k, v, ok := strings.Cut(key, "="); ok {
			key, value = k, v
		}
	}
	key = strings.ToLower(strings.TrimSpace(key))
	apply, ok := knobs[key]
	if !ok {
		return s, fmt.Errorf("flight: unknown what-if knob %q (have %s)",
			key, strings.Join(Knobs(), ", "))
	}
	out := s
	// Slices are shared with the base spec but never mutated by knobs.
	if err := apply(&out, strings.TrimSpace(value)); err != nil {
		return s, err
	}
	return out.Normalize()
}

func setInt(dst *int, v string) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return fmt.Errorf("flight: bad integer %q", v)
	}
	*dst = n
	return nil
}

// setCount sets a knob that counts what the world is built from. A recorded
// zero means the default, but a what-if below one is refused by name instead
// of run as the default.
func setCount(dst *int, name, v string) error {
	var n int
	if err := setInt(&n, v); err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("flight: %s=%d: must be at least 1", name, n)
	}
	*dst = n
	return nil
}

// setSpan sets a duration knob, refusing by name a negative value, and zero
// unless zeroOK (zero is the default epoch, but no horizon).
func setSpan(dst *time.Duration, name, v string, zeroOK bool) error {
	var d time.Duration
	if err := setDur(&d, v); err != nil {
		return err
	}
	if d < 0 {
		return fmt.Errorf("flight: %s=%v: must not be negative", name, d)
	}
	if d == 0 && !zeroOK {
		return fmt.Errorf("flight: %s=0: must be positive", name)
	}
	*dst = d
	return nil
}

func setInt64(dst *int64, v string) error {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return fmt.Errorf("flight: bad integer %q", v)
	}
	*dst = n
	return nil
}

func setDur(dst *time.Duration, v string) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("flight: bad duration %q", v)
	}
	*dst = d
	return nil
}

func setBool(dst *bool, v string) error {
	b, err := strconv.ParseBool(v)
	if err != nil {
		return fmt.Errorf("flight: bad boolean %q", v)
	}
	*dst = b
	return nil
}
