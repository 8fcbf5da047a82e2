package health

import (
	"slices"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
)

// Monitor runs heartbeat-based failure detection on the sim engine: every
// tracked node schedules deterministic heartbeat events, an evaluation ticker
// sweeps the detectors in sorted node-ID order, and a detected failure fires
// the caller's callback (the fault injector repairs the node's pending
// orphans there). All randomness-free: heartbeat phases are hashed from node
// IDs and loss is the same deterministic accumulator the live links use, so a
// run is a pure function of (profile, seed) like everything else in the sim.
type Monitor struct {
	engine *sim.Engine
	cfg    DetectorConfig

	// Loss, when non-nil, is queried at each heartbeat send time; the
	// schedule's LossFrac lookup plugs in here so detector traffic sees the
	// same impairment windows as video traffic.
	loss func(now time.Duration) float64
	// onDetect fires once per down-transition detection.
	onDetect func(id int64, now time.Duration)

	nodes map[int64]*monNode
	// seq holds the tracked nodes for the evaluation sweep; appended on
	// Track and re-sorted by ID only when a sweep actually runs, so bulk
	// registration costs no per-node sorted-insert shuffle.
	seq      []*monNode
	seqDirty bool
	// block is the tail of a chunked node arena: nodes and their detector
	// gap windows come from per-chunk slabs, pointer-stable for the
	// lifetime of the monitor, instead of three heap objects per Track.
	block *monBlock
	stats *obs.HealthStats

	hbFn func(any) // pre-bound payload callback: no closure per heartbeat

	// Plain tallies (the figure accessors): per-world, never shared.
	detected      int64
	falsePos      int64
	detLatencySum time.Duration
	detLatencyMax time.Duration
}

type monNode struct {
	id        int64
	det       Detector
	alive     bool
	suspected bool
	downAt    time.Duration
	lossAcc   float64
}

// monChunk is the arena slab size: one allocation per 64 tracked nodes
// (plus one gap-window backing array shared by the slab).
const monChunk = 64

type monBlock struct {
	nodes [monChunk]monNode
	used  int
	gaps  []time.Duration
}

// allocNode hands out the next arena slot with its detector wired to a
// cap-bounded sub-window of the slab's shared gaps array — the detector
// ring never grows past Window, so the sub-slice is all it ever needs.
func (m *Monitor) allocNode() *monNode {
	if m.block == nil || m.block.used == monChunk {
		m.block = &monBlock{gaps: make([]time.Duration, monChunk*m.cfg.Window)}
	}
	b := m.block
	n := &b.nodes[b.used]
	w := m.cfg.Window
	lo := b.used * w
	*n = monNode{det: Detector{cfg: m.cfg, gaps: b.gaps[lo : lo : lo+w]}}
	b.used++
	return n
}

// NewMonitor binds a monitor to an engine. loss and onDetect may be nil;
// stats may be nil.
func NewMonitor(engine *sim.Engine, cfg DetectorConfig, loss func(time.Duration) float64, stats *obs.HealthStats) *Monitor {
	m := &Monitor{
		engine: engine,
		cfg:    cfg.Defaulted(),
		loss:   loss,
		nodes:  make(map[int64]*monNode),
		stats:  stats,
	}
	m.hbFn = m.heartbeat
	return m
}

// OnDetect installs the detection callback. Install before Start.
func (m *Monitor) OnDetect(fn func(id int64, now time.Duration)) { m.onDetect = fn }

// Track starts heartbeat monitoring for a node. The first heartbeat fires at
// a deterministic per-ID phase offset inside one interval so a fleet does not
// beat in lockstep.
func (m *Monitor) Track(id int64) {
	if _, dup := m.nodes[id]; dup {
		return
	}
	n := m.allocNode()
	n.id = id
	n.alive = true
	n.det.Reset(m.engine.Now())
	m.nodes[id] = n
	m.seq = append(m.seq, n)
	m.seqDirty = true
	h := uint64(id)*2654435761 + 0x9e3779b97f4a7c15
	offset := time.Duration(h % uint64(m.cfg.Interval))
	m.engine.SchedulePayload(offset, m.hbFn, n)
}

// Start arms the evaluation ticker. Call once, before running the engine.
func (m *Monitor) Start() {
	m.engine.Every(m.cfg.CheckEvery, m.evaluate)
}

// Kill marks a node dead: its heartbeats stop being sent. Detection of the
// silence is the monitor's job from here. A standing wrong suspicion is
// dropped, so the sweep reports the death itself rather than skip the node.
func (m *Monitor) Kill(id int64) {
	n, ok := m.nodes[id]
	if !ok || !n.alive {
		return
	}
	n.alive = false
	n.suspected = false
	n.downAt = m.engine.Now()
}

// Recover marks a node alive again as a fresh instance: detector history
// resets and heartbeats resume at the node's standing cadence.
func (m *Monitor) Recover(id int64) {
	n, ok := m.nodes[id]
	if !ok {
		m.Track(id)
		return
	}
	n.alive = true
	n.suspected = false
	n.lossAcc = 0
	n.det.Reset(m.engine.Now())
}

// heartbeat is one node's send event: if the node is alive and the loss
// accumulator lets the frame through, the detector records an arrival. The
// event reschedules itself every interval whether or not the node is up, so
// a recovered node resumes on its original phase.
func (m *Monitor) heartbeat(arg any) {
	n := arg.(*monNode)
	now := m.engine.Now()
	if n.alive {
		if m.stats != nil {
			m.stats.HeartbeatsSent.Inc()
		}
		dropped := false
		if m.loss != nil {
			if lf := m.loss(now); lf > 0 {
				n.lossAcc += lf
				if n.lossAcc >= 1 {
					n.lossAcc--
					dropped = true
				}
			} else {
				n.lossAcc = 0
			}
		}
		if dropped {
			if m.stats != nil {
				m.stats.HeartbeatsLost.Inc()
			}
		} else {
			n.det.Heartbeat(now)
			if n.suspected {
				// The node was wrongly suspected and spoke up again; the
				// false positive was already counted at suspicion time.
				n.suspected = false
			}
		}
	}
	m.engine.SchedulePayload(m.cfg.Interval, m.hbFn, n)
}

// sorted returns the tracked nodes in ascending ID order, re-sorting only
// after new registrations. The sort is in place over the standing slice:
// steady-state sweeps pay zero allocations.
func (m *Monitor) sorted() []*monNode {
	if m.seqDirty {
		slices.SortFunc(m.seq, func(a, b *monNode) int {
			switch {
			case a.id < b.id:
				return -1
			case a.id > b.id:
				return 1
			}
			return 0
		})
		m.seqDirty = false
	}
	return m.seq
}

// evaluate sweeps every tracked detector. Sorted-ID order keeps the sweep —
// and therefore the onDetect callback order inside one tick — deterministic.
func (m *Monitor) evaluate() {
	now := m.engine.Now()
	for _, n := range m.sorted() {
		if n.suspected || !n.det.Suspect(now) {
			continue
		}
		n.suspected = true
		if n.alive {
			m.falsePos++
			if m.stats != nil {
				m.stats.FalsePositives.Inc()
			}
			continue
		}
		lat := now - n.downAt
		m.detected++
		m.detLatencySum += lat
		if lat > m.detLatencyMax {
			m.detLatencyMax = lat
		}
		if m.stats != nil {
			m.stats.Detected.Inc()
			m.stats.DetectionNs.Observe(int64(lat))
		}
		if m.onDetect != nil {
			m.onDetect(n.id, now)
		}
	}
}

// Stats returns the monitor's obs bundle, or nil.
func (m *Monitor) Stats() *obs.HealthStats { return m.stats }

// Detected returns how many down-transitions the monitor detected.
func (m *Monitor) Detected() int64 { return m.detected }

// FalsePositives returns how many live nodes were wrongly suspected.
func (m *Monitor) FalsePositives() int64 { return m.falsePos }

// MeanDetectionLatency returns the mean down-to-detection latency, or 0 when
// nothing was detected.
func (m *Monitor) MeanDetectionLatency() time.Duration {
	if m.detected == 0 {
		return 0
	}
	return m.detLatencySum / time.Duration(m.detected)
}

// MaxDetectionLatency returns the worst down-to-detection latency observed —
// the quantity DetectorConfig.Bound bounds.
func (m *Monitor) MaxDetectionLatency() time.Duration { return m.detLatencyMax }
