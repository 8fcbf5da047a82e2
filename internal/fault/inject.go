package fault

import (
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
)

// Injector replays a compiled schedule on a sim engine against a real Fog:
// kills run core.FailSupernode, each orphan's repair is delayed by a uniform
// draw in (0, Detect] from the caller-seeded stream (the subsystem's only
// runtime randomness, totally ordered by the single-threaded engine), and
// recoveries re-register fresh instances. Tallies are kept always-on and
// folded into the optional obs bundle once by Finish, so instrumentation
// never changes the run.
type Injector struct {
	sched  *Schedule
	engine *sim.Engine
	fog    *core.Fog
	// respawn builds a fresh supernode instance for a recovery. The fault
	// subsystem never resurrects the old pointer: the paper's failover
	// logic treats a re-registered contributor as a new machine.
	respawn func(id int64) *core.Supernode
	rng     *sim.Rand
	stats   *obs.FaultStats

	downSince map[int64]time.Duration
	killed    int64
	recovered int64
	orphaned  int64
	repaired  int64
	cloudHops int64 // repairs that left the fog for cloud or edge
	lapsed    int64
	repairs   int64 // scheduled orphan repairs not yet fired
	windows   int64

	// mon, when non-nil, replaces the oracle detection-delay draw: orphans
	// wait in pendingDetect until the heartbeat monitor actually notices
	// the node's silence. Oracle mode (mon == nil) is bit-identical to
	// PR 4.
	mon           *health.Monitor
	pendingDetect map[int64][]pendingRepair
	// Oracle-mode detection tallies, for the figdetect comparison: the
	// uniform draws are the oracle's "detection latency".
	oracleDelaySum time.Duration
	oracleDelays   int64
}

// pendingRepair is one orphan awaiting its node's failure detection.
type pendingRepair struct {
	p      *core.Player
	killAt time.Duration
}

// NewInjector binds a schedule to an engine and fog. A nil schedule is a
// fault-free run: nothing is injected, and a monitor still runs. respawn
// mints the fresh instance a recovery registers and must be non-nil when the
// schedule has recoveries; rng seeds the detection-delay draws; stats may be
// nil.
func NewInjector(sched *Schedule, engine *sim.Engine, fog *core.Fog, respawn func(id int64) *core.Supernode, rng *sim.Rand, stats *obs.FaultStats) *Injector {
	return &Injector{
		sched:     sched,
		engine:    engine,
		fog:       fog,
		respawn:   respawn,
		rng:       rng,
		stats:     stats,
		downSince: make(map[int64]time.Duration),
	}
}

// SetMonitor replaces the oracle detection-delay draw with a heartbeat
// monitor: orphans of a killed supernode are repaired when the monitor
// detects the silence, not after a drawn delay. Call before Start.
func (in *Injector) SetMonitor(mon *health.Monitor) {
	in.mon = mon
	in.pendingDetect = make(map[int64][]pendingRepair)
	mon.OnDetect(in.onDetect)
}

// Start schedules every compiled event on the engine and, in monitor mode,
// starts heartbeat tracking for every currently-registered supernode. Call
// once, before running the engine.
func (in *Injector) Start() {
	if in.mon != nil {
		for _, sn := range in.fog.Supernodes() {
			in.mon.Track(sn.ID)
		}
		in.mon.Start()
	}
	if in.sched == nil {
		return
	}
	for i := range in.sched.Events {
		ev := in.sched.Events[i]
		in.engine.ScheduleAt(ev.At, func() { in.apply(ev) })
	}
}

// apply interprets one event. Impairment edges are only counted: qoe reads
// the windows themselves through the schedule's lookups.
func (in *Injector) apply(ev Event) {
	switch ev.Op {
	case OpKill:
		in.kill(ev)
	case OpRecover:
		in.recover(ev.Node)
	case OpLinkBad, OpLatencyOn:
		in.windows++
	case OpBandwidth:
		if ev.F != 1 {
			in.windows++
		}
	}
}

// kill fails the supernode and schedules each orphan's repair after its
// detection delay. A kill targeting an already-down supernode is skipped;
// its paired recovery self-skips too because downSince is keyed by the kill
// that actually happened.
func (in *Injector) kill(ev Event) {
	if _, up := in.fog.Supernode(ev.Node); !up {
		return
	}
	killAt := in.engine.Now()
	orphans := in.fog.FailSupernode(ev.Node)
	in.killed++
	in.orphaned += int64(len(orphans))
	if _, down := in.downSince[ev.Node]; !down {
		in.downSince[ev.Node] = killAt
	}
	for _, p := range orphans {
		if ev.D <= 0 {
			// Graceful leave: the cloud knows immediately, repair is
			// synchronous (matches DeregisterSupernode semantics).
			in.repair(p, killAt)
			continue
		}
		if in.mon != nil {
			// Monitor mode: the orphan waits until the heartbeat monitor
			// actually notices the node's silence. If recovery or the
			// horizon preempts detection, the orphan counts as PendingEnd,
			// same as an unfired oracle repair.
			in.repairs++
			in.pendingDetect[ev.Node] = append(in.pendingDetect[ev.Node], pendingRepair{p, killAt})
			continue
		}
		delay := in.rng.UniformDuration(0, ev.D)
		in.oracleDelaySum += delay
		in.oracleDelays++
		in.repairs++
		p := p
		in.engine.Schedule(delay, func() {
			in.repairs--
			in.repair(p, killAt)
		})
	}
	if in.mon != nil {
		in.mon.Kill(ev.Node)
	}
}

// onDetect fires when the heartbeat monitor detects a node's failure: every
// orphan stashed for that node repairs now, in kill (hence player-ID) order.
func (in *Injector) onDetect(id int64, now time.Duration) {
	pend := in.pendingDetect[id]
	if len(pend) == 0 {
		return
	}
	delete(in.pendingDetect, id)
	for _, pr := range pend {
		in.repairs--
		in.repair(pr.p, pr.killAt)
	}
}

func (in *Injector) repair(p *core.Player, killAt time.Duration) {
	if !in.fog.Failover(p) {
		in.lapsed++
		return
	}
	in.repaired++
	if k := p.Attached.Kind; k == core.AttachCloud || k == core.AttachEdge {
		in.cloudHops++
	}
	if in.stats != nil {
		in.stats.InterruptionNs.Observe(int64(in.engine.Now() - killAt))
	}
}

func (in *Injector) recover(id int64) {
	downAt, ok := in.downSince[id]
	if !ok {
		return
	}
	delete(in.downSince, id)
	sn := in.respawn(id)
	if sn == nil {
		return
	}
	if err := in.fog.RegisterSupernode(sn); err != nil {
		return
	}
	if in.mon != nil {
		in.mon.Recover(id)
	}
	in.recovered++
	if in.stats != nil {
		in.stats.MTTRNs.Observe(int64(in.engine.Now() - downAt))
	}
}

// Finish closes the orphan ledger; call it exactly once, after the engine
// stops (a second call adds the tallies into the obs counters again):
// repairs still scheduled count as pending, and the always-on tallies fold
// into the obs bundle. The ledger identity the reconciliation checks is
//
//	Orphaned == FailoverBackupHits + FailoverReassigns + Lapsed + PendingEnd.
func (in *Injector) Finish() {
	if in.mon != nil {
		if hs := in.mon.Stats(); hs != nil {
			hs.KillsObserved.Add(in.killed)
			hs.DetectPending.Add(in.DetectPending())
		}
	}
	if in.stats == nil {
		return
	}
	in.stats.Kills.Add(in.killed)
	in.stats.Recoveries.Add(in.recovered)
	in.stats.Orphaned.Add(in.orphaned)
	in.stats.Lapsed.Add(in.lapsed)
	in.stats.PendingEnd.Add(in.repairs)
	in.stats.LinkWindows.Add(in.windows)
}

// Killed returns how many kills were applied so far.
func (in *Injector) Killed() int64 { return in.killed }

// Recovered returns how many recoveries re-registered a supernode.
func (in *Injector) Recovered() int64 { return in.recovered }

// Orphaned returns how many players were orphaned by kills.
func (in *Injector) Orphaned() int64 { return in.orphaned }

// Repaired returns how many orphans a failover re-attached, and CloudHops how
// many of those landed on the cloud or an edge server instead of a supernode.
func (in *Injector) Repaired() int64  { return in.repaired }
func (in *Injector) CloudHops() int64 { return in.cloudHops }

// Lapsed returns how many orphans were unrepairable when their repair fired.
func (in *Injector) Lapsed() int64 { return in.lapsed }

// PendingEnd returns how many orphan repairs are still scheduled.
func (in *Injector) PendingEnd() int64 { return in.repairs }

// Detected returns how many kills the failure detector noticed: heartbeat
// detections in monitor mode, or every kill in oracle mode (the oracle knows
// by construction).
func (in *Injector) Detected() int64 {
	if in.mon != nil {
		return in.mon.Detected()
	}
	return in.killed
}

// DetectPending returns how many kills were still undetected at the horizon
// (a node recovered before its silence crossed the threshold, or the run
// ended first). Always zero in oracle mode. The detection ledger identity is
//
//	Detected + DetectPending == Killed.
func (in *Injector) DetectPending() int64 {
	if in.mon == nil {
		return 0
	}
	return in.killed - in.mon.Detected()
}

// FalsePositives returns how many live supernodes the detector wrongly
// suspected (zero in oracle mode).
func (in *Injector) FalsePositives() int64 {
	if in.mon == nil {
		return 0
	}
	return in.mon.FalsePositives()
}

// MeanDetectionLatency returns the mean failure-detection latency: the
// monitor's measured kill-to-detection time, or the mean of the oracle's
// drawn delays. Zero when nothing was detected.
func (in *Injector) MeanDetectionLatency() time.Duration {
	if in.mon != nil {
		return in.mon.MeanDetectionLatency()
	}
	if in.oracleDelays == 0 {
		return 0
	}
	return in.oracleDelaySum / time.Duration(in.oracleDelays)
}
