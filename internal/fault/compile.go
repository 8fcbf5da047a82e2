package fault

import (
	"fmt"
	"sort"
	"time"

	"cloudfog/internal/sim"
)

// Op is one scheduled fault action.
type Op uint8

const (
	// OpKill removes supernode Node abruptly; D carries the spec's Detect
	// interval for the orphan-repair delay draws.
	OpKill Op = iota + 1
	// OpRecover re-registers supernode Node (a fresh instance).
	OpRecover
	// OpLinkBad / OpLinkGood bracket a Gilbert–Elliott bad window; F is
	// the bad-state loss fraction.
	OpLinkBad
	OpLinkGood
	// OpLatencyOn / OpLatencyOff bracket a latency spike; D is the extra
	// one-way latency.
	OpLatencyOn
	OpLatencyOff
	// OpBandwidth scales every serving node's uplink by F (F = 1 restores).
	// 8–13 are retired (cloud scale, join, coordinator partition, worker
	// distress): a persisted schedule encodes op numbers.
	OpBandwidth
)

// String names the op for logs.
func (o Op) String() string {
	switch o {
	case OpKill:
		return "kill"
	case OpRecover:
		return "recover"
	case OpLinkBad:
		return "link_bad"
	case OpLinkGood:
		return "link_good"
	case OpLatencyOn:
		return "latency_on"
	case OpLatencyOff:
		return "latency_off"
	case OpBandwidth:
		return "bandwidth"
	default:
		return "unknown"
	}
}

// Event is one compiled fault action. The compiled event list is the
// injected-event log the determinism property pins: same profile + targets
// ⇒ the bit-identical slice.
type Event struct {
	At   time.Duration
	Op   Op
	Node int64         // target supernode id; 0 = global
	D    time.Duration // op-specific duration payload (Detect, Extra)
	F    float64       // op-specific factor (loss frac, bandwidth scale)
}

// Node is one fault target: a supernode's identity and position (positions
// drive partition membership).
type Node struct {
	ID   int64
	X, Y float64
}

// Targets enumerates what the profile can act on.
type Targets struct {
	Supernodes []Node
}

// window is one active impairment interval, pre-resolved at compile time so
// runtime lookups never draw randomness.
type window struct {
	from, to time.Duration
	f        float64       // loss fraction / bandwidth scale
	d        time.Duration // extra latency
}

// Schedule is a compiled profile: the sorted event list for the injectors
// plus per-kind impairment windows answering pure time queries. Schedule
// implements the qoe package's Impairment interface.
type Schedule struct {
	Profile *Profile
	Events  []Event

	lossW []window // sorted, non-overlapping
	latW  []window
	bwW   []window
}

// Compile materializes a profile against the targets. All randomness is
// drawn here: the root stream is keyed by the profile seed and forked once
// per spec in order, so specs are independent and the output is a pure
// function of (profile, targets).
func Compile(p *Profile, t Targets) (*Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Schedule{Profile: p}
	root := sim.NewRand(p.Seed)
	horizon := p.Duration.Duration
	for i := range p.Specs {
		spec := &p.Specs[i]
		rng := root.Fork()
		start := spec.Start.Duration
		end := spec.End.Duration
		if end <= 0 || end > horizon {
			end = horizon
		}
		switch spec.Kind {
		case KindCrash:
			s.compileCrash(spec, t, rng, start, end)
		case KindLoss:
			w := alternating(rng, start, end, spec.MeanGood.Duration, spec.MeanBad.Duration)
			for _, b := range w {
				s.Events = append(s.Events,
					Event{At: b.from, Op: OpLinkBad, F: spec.LossFrac},
					Event{At: b.to, Op: OpLinkGood})
				s.lossW = append(s.lossW, window{from: b.from, to: b.to, f: spec.LossFrac})
			}
		case KindLatency:
			w := alternating(rng, start, end, spec.MeanGood.Duration, spec.MeanBad.Duration)
			for _, b := range w {
				s.Events = append(s.Events,
					Event{At: b.from, Op: OpLatencyOn, D: spec.Extra.Duration},
					Event{At: b.to, Op: OpLatencyOff})
				s.latW = append(s.latW, window{from: b.from, to: b.to, d: spec.Extra.Duration})
			}
		case KindBandwidth:
			s.Events = append(s.Events,
				Event{At: start, Op: OpBandwidth, F: spec.Factor},
				Event{At: end, Op: OpBandwidth, F: 1})
			s.bwW = append(s.bwW, window{from: start, to: end, f: spec.Factor})
		case KindPartition:
			for _, n := range t.Supernodes {
				if spec.Region.Contains(n.X, n.Y) {
					s.Events = append(s.Events,
						Event{At: start, Op: OpKill, Node: n.ID, D: spec.Detect.Duration},
						Event{At: end, Op: OpRecover, Node: n.ID})
				}
			}
		}
	}
	// Stable sort: ties keep spec order, so the schedule is deterministic.
	sort.SliceStable(s.Events, func(a, b int) bool { return s.Events[a].At < s.Events[b].At })
	for _, w := range [][]window{s.lossW, s.latW, s.bwW} {
		if err := checkWindows(w); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// compileCrash emits kill/recover pairs. Exponential mode renews each
// targeted supernode independently (up ~ Exp(mean MTTF), down ~ Exp(mean
// MTTR)); period mode kills one uniformly-drawn target per period with a
// fixed MTTR downtime. Recoveries past the horizon are still emitted — the
// injector simply never reaches them.
func (s *Schedule) compileCrash(spec *Spec, t Targets, rng *sim.Rand, start, end time.Duration) {
	targets := pickTargets(t.Supernodes, spec.TargetFrac, rng)
	if len(targets) == 0 {
		return
	}
	mttr := spec.MTTR.Duration
	if mttr <= 0 {
		mttr = 5 * time.Minute
	}
	if spec.Period.Duration > 0 {
		for at := start + spec.Period.Duration; at < end; at += spec.Period.Duration {
			n := targets[rng.Intn(len(targets))]
			s.Events = append(s.Events,
				Event{At: at, Op: OpKill, Node: n.ID, D: spec.Detect.Duration},
				Event{At: at + mttr, Op: OpRecover, Node: n.ID})
		}
		return
	}
	upRate := 1 / spec.MTTF.Duration.Seconds()
	downRate := 1 / mttr.Seconds()
	for _, n := range targets {
		at := start + rng.Exp(upRate)
		for at < end {
			down := rng.Exp(downRate)
			s.Events = append(s.Events,
				Event{At: at, Op: OpKill, Node: n.ID, D: spec.Detect.Duration},
				Event{At: at + down, Op: OpRecover, Node: n.ID})
			at += down + rng.Exp(upRate)
		}
	}
}

// pickTargets selects frac of the nodes via a seeded shuffle (frac <= 0
// means all). The draw consumes the spec stream even when it selects
// everything, keeping downstream draws stable as frac changes.
func pickTargets(nodes []Node, frac float64, rng *sim.Rand) []Node {
	if len(nodes) == 0 {
		return nil
	}
	perm := rng.Perm(len(nodes))
	k := len(nodes)
	if frac > 0 && frac < 1 {
		k = int(frac*float64(len(nodes)) + 0.5)
		if k < 1 {
			k = 1
		}
	}
	out := make([]Node, k)
	for i := 0; i < k; i++ {
		out[i] = nodes[perm[i]]
	}
	// Deterministic apply order independent of the shuffle.
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// alternating draws the bad windows of a good/bad alternating renewal
// process on [start, end): exponential good sojourns, exponential bad
// sojourns, starting in the good state.
func alternating(rng *sim.Rand, start, end time.Duration, meanGood, meanBad time.Duration) []window {
	goodRate := 1 / meanGood.Seconds()
	badRate := 1 / meanBad.Seconds()
	var out []window
	at := start
	for {
		at += rng.Exp(goodRate)
		if at >= end {
			return out
		}
		bad := rng.Exp(badRate)
		to := at + bad
		if to > end {
			to = end
		}
		out = append(out, window{from: at, to: to})
		at = to
	}
}

// checkWindows rejects overlapping same-kind windows: two loss (or latency,
// or bandwidth) specs whose bad windows intersect would make the impairment
// ambiguous. One spec per kind never overlaps itself.
func checkWindows(w []window) error {
	sorted := make([]window, len(w))
	copy(sorted, w)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].from < sorted[b].from })
	for i := 1; i < len(sorted); i++ {
		if sorted[i].from < sorted[i-1].to {
			return fmt.Errorf("fault: overlapping impairment windows at %v — use one spec per kind or disjoint Start/End", sorted[i].from)
		}
	}
	copy(w, sorted)
	return nil
}

// lookup binary-searches the sorted window list for one covering now.
func lookup(ws []window, now time.Duration) (window, bool) {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].to > now })
	if i < len(ws) && ws[i].from <= now {
		return ws[i], true
	}
	return window{}, false
}

// ExtraLatency returns the extra one-way latency active at now. Pure in now:
// safe for parallel sweeps, zero runtime randomness.
func (s *Schedule) ExtraLatency(now time.Duration) time.Duration {
	if w, ok := lookup(s.latW, now); ok {
		return w.d
	}
	return 0
}

// LossFrac returns the wire loss fraction active at now.
func (s *Schedule) LossFrac(now time.Duration) float64 {
	if w, ok := lookup(s.lossW, now); ok {
		return w.f
	}
	return 0
}

// BandwidthScale returns the uplink capacity multiplier active at now
// (1 when unimpaired).
func (s *Schedule) BandwidthScale(now time.Duration) float64 {
	if w, ok := lookup(s.bwW, now); ok {
		return w.f
	}
	return 1
}
