package health

import (
	"fmt"
	"time"

	"cloudfog/internal/obs"
)

// OverloadState is one rung of the supernode degradation ladder. The ladder
// replaces the binary capacity check: instead of serving at full quality
// until the last slot and then refusing, a filling supernode first steps its
// players down the encoding ladder, then stops advertising itself as a
// backup, then refuses new joins, and finally asks the fog to migrate its
// newest players away.
type OverloadState int

const (
	StateNormal OverloadState = iota
	StateDegraded
	StateShedding
	StateRejecting
	StateMigrating
)

// String names the state.
func (s OverloadState) String() string {
	switch s {
	case StateNormal:
		return "normal"
	case StateDegraded:
		return "degraded"
	case StateShedding:
		return "shedding"
	case StateRejecting:
		return "rejecting"
	case StateMigrating:
		return "migrating"
	default:
		return fmt.Sprintf("OverloadState(%d)", int(s))
	}
}

// OverloadConfig sets the ladder's entry thresholds (slot occupancy,
// load/capacity) and the hysteresis gap applied on the way back down: a state
// entered at occupancy u is only left when occupancy falls to u-Hysteresis,
// so a node oscillating around one threshold does not flap.
type OverloadConfig struct {
	DegradeAt  float64 // enter Degraded (players step one ladder level down)
	ShedAt     float64 // enter Shedding (no longer accepts backup duty)
	RejectAt   float64 // enter Rejecting (admission control refuses joins)
	MigrateAt  float64 // enter Migrating (newest players moved off)
	Hysteresis float64
}

// DefaultOverloadConfig returns the canonical ladder.
func DefaultOverloadConfig() OverloadConfig {
	return OverloadConfig{
		DegradeAt:  0.70,
		ShedAt:     0.85,
		RejectAt:   0.95,
		MigrateAt:  1.0,
		Hysteresis: 0.15,
	}
}

// Validate reports configuration errors.
func (c OverloadConfig) Validate() error {
	switch {
	case !(c.DegradeAt > 0 && c.DegradeAt < c.ShedAt && c.ShedAt < c.RejectAt && c.RejectAt <= c.MigrateAt):
		return fmt.Errorf("health: overload thresholds must be ordered 0 < DegradeAt < ShedAt < RejectAt <= MigrateAt, got %+v", c)
	case c.Hysteresis <= 0 || c.Hysteresis >= c.DegradeAt:
		return fmt.Errorf("health: Hysteresis %v outside (0, DegradeAt)", c.Hysteresis)
	}
	return nil
}

// enterAt returns the occupancy at which the ladder enters state s.
func (c OverloadConfig) enterAt(s OverloadState) float64 {
	switch s {
	case StateDegraded:
		return c.DegradeAt
	case StateShedding:
		return c.ShedAt
	case StateRejecting:
		return c.RejectAt
	case StateMigrating:
		return c.MigrateAt
	default:
		return 0
	}
}

// Overload tracks the ladder state of every supernode. Not safe for
// concurrent use — it belongs to the single-threaded fog control plane, like
// the Fog itself.
type Overload struct {
	cfg   OverloadConfig
	nodes map[int64]*olNode
	stats *obs.HealthStats
	// now, when non-nil, timestamps degraded episodes for the
	// time-in-degraded histogram.
	now func() time.Duration
}

type olNode struct {
	state      OverloadState
	degradedAt time.Duration
}

// NewOverload builds a ladder manager; cfg zero-value means defaults. stats
// and now may be nil.
func NewOverload(cfg OverloadConfig, stats *obs.HealthStats, now func() time.Duration) (*Overload, error) {
	if cfg == (OverloadConfig{}) {
		cfg = DefaultOverloadConfig()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Overload{cfg: cfg, nodes: make(map[int64]*olNode), stats: stats, now: now}, nil
}

// Observe feeds one supernode's current occupancy (load/capacity) into the
// ladder, advancing or retreating its state with hysteresis, and returns the
// state after the move. The fog calls it on every attach and detach.
func (o *Overload) Observe(id int64, load, capacity int) OverloadState {
	if capacity <= 0 {
		return StateNormal
	}
	u := float64(load) / float64(capacity)
	n := o.nodes[id]
	if n == nil {
		n = &olNode{}
		o.nodes[id] = n
	}
	prev := n.state
	for n.state < StateMigrating && u >= o.cfg.enterAt(n.state+1) {
		n.state++
	}
	for n.state > StateNormal && u < o.cfg.enterAt(n.state)-o.cfg.Hysteresis {
		n.state--
	}
	if n.state != prev {
		o.transition(prev, n.state, n)
	}
	return n.state
}

func (o *Overload) transition(from, to OverloadState, n *olNode) {
	var now time.Duration
	if o.now != nil {
		now = o.now()
	}
	if from == StateNormal && to > StateNormal {
		n.degradedAt = now
	}
	if o.stats != nil {
		if to > from {
			o.stats.Degraded.Inc()
		} else {
			o.stats.Restored.Inc()
			if to == StateNormal && o.now != nil {
				o.stats.TimeDegradedNs.Observe(int64(now - n.degradedAt))
			}
		}
	}
}

// State returns the node's current ladder state.
func (o *Overload) State(id int64) OverloadState {
	if n := o.nodes[id]; n != nil {
		return n.state
	}
	return StateNormal
}

// Admit reports whether the node accepts a new player (join or failover).
func (o *Overload) Admit(id int64) bool { return o.State(id) < StateRejecting }

// AllowBackup reports whether the node may be recorded as a failover backup.
func (o *Overload) AllowBackup(id int64) bool { return o.State(id) < StateShedding }

// ShouldMigrate reports whether the fog should move players off the node.
func (o *Overload) ShouldMigrate(id int64) bool { return o.State(id) >= StateMigrating }

// WouldMigrate reports whether the given occupancy sits at or past the
// migration threshold — the predictive form of ShouldMigrate the relief
// sweep uses to keep evictees off nodes they would immediately overfill.
func (o *Overload) WouldMigrate(load, capacity int) bool {
	if capacity <= 0 {
		return false
	}
	return float64(load)/float64(capacity) >= o.cfg.MigrateAt
}

// LevelCap returns the highest encoding-ladder level the node currently
// serves, given a player's preferred start level: each rung past Normal
// steps one level further down, floored at level 1.
func (o *Overload) LevelCap(id int64, startLevel int) int {
	s := o.State(id)
	if s < StateDegraded {
		return startLevel
	}
	cap := startLevel - int(s)
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Forget drops a node's ladder state (the node failed or deregistered).
func (o *Overload) Forget(id int64) { delete(o.nodes, id) }
