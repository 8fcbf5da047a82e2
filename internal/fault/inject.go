package fault

import (
	"sort"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
)

// target is what a driver's kill and recovery do — fail and re-register a
// supernode on a core.Fog, or kill and respawn a live process. Each reports
// whether it took effect.
type target interface {
	kill(ev Event) bool
	recover(id int64) bool
}

// replay is the one interpreter of a compiled schedule. The Injector calls
// apply from its engine, RunWall from its timer loop; the rules below hold on
// both clocks, and only what a kill and a recovery do belongs to the driver.
type replay struct {
	sched *Schedule
	stats *obs.FaultStats // MTTR lands here as it is observed; may be nil
	// link pushes the impairment in force onto the driver's streams; nil
	// when the driver reads the windows off the schedule by time, as the
	// QoE simulation does.
	link func(extra time.Duration, lossFrac float64)

	downSince map[int64]time.Duration
	killed    int64
	recovered int64
	windows   int64
}

func newReplay(sched *Schedule, stats *obs.FaultStats) replay {
	return replay{sched: sched, stats: stats, downSince: make(map[int64]time.Duration)}
}

// due is the horizon cut: the events at or before the profile's horizon.
// Recoveries past it are compiled, and never applied.
func (r *replay) due() []Event {
	h := r.sched.Profile.Duration.Duration
	return r.sched.Events[:sort.Search(len(r.sched.Events), func(i int) bool { return r.sched.Events[i].At > h })]
}

// apply interprets one event at now on the driver's clock. A kill aimed at a
// node that is already down is skipped, and so is a recovery of a node that
// is not down; a recovery that does not take effect leaves the node down.
// Every impairment window the schedule opens counts, bandwidth included,
// whether or not the driver has a link to push it onto.
func (r *replay) apply(t target, now time.Duration, ev Event) {
	switch ev.Op {
	case OpKill:
		if _, down := r.downSince[ev.Node]; down || !t.kill(ev) {
			return
		}
		r.downSince[ev.Node] = now
		r.killed++
	case OpRecover:
		downAt, down := r.downSince[ev.Node]
		if !down || !t.recover(ev.Node) {
			return
		}
		delete(r.downSince, ev.Node)
		r.recovered++
		if r.stats != nil {
			r.stats.MTTRNs.Observe(int64(now - downAt))
		}
		// A fresh instance has an unimpaired link, while the simulator impairs
		// every segment by time: re-apply a window it recovers into.
		if r.sched.ExtraLatency(ev.At) != 0 || r.sched.LossFrac(ev.At) != 0 {
			r.impair(ev.At)
		}
	case OpLinkBad, OpLatencyOn:
		r.windows++
		r.impair(ev.At)
	case OpLinkGood, OpLatencyOff:
		r.impair(ev.At)
	case OpBandwidth:
		// No live rate cap applies a bandwidth window yet; the QoE
		// simulation reads it off the schedule.
		if ev.F != 1 {
			r.windows++
		}
	}
}

// impair pushes the state in force at the event time: window starts are
// inclusive and ends exclusive, so the post-edge state falls out of the same
// pure lookups the simulator uses.
func (r *replay) impair(at time.Duration) {
	if r.link != nil {
		r.link(r.sched.ExtraLatency(at), r.sched.LossFrac(at))
	}
}

// fold adds the kill, recovery and link-window tallies into the stats.
func (r *replay) fold() {
	r.stats.Kills.Add(r.killed)
	r.stats.Recoveries.Add(r.recovered)
	r.stats.LinkWindows.Add(r.windows)
}

// Injector replays a compiled schedule on a sim engine against a real Fog:
// kills run core.FailSupernode, each orphan's repair is delayed by a uniform
// draw in (0, Detect] from the caller-seeded stream (the subsystem's only
// runtime randomness, totally ordered by the single-threaded engine), and
// recoveries re-register fresh instances. Tallies are kept always-on and
// folded into the optional obs bundle once by Finish, so instrumentation
// never changes the run.
type Injector struct {
	replay
	engine *sim.Engine
	fog    *core.Fog
	// respawn builds a fresh supernode instance for a recovery. The fault
	// subsystem never resurrects the old pointer: the paper's failover
	// logic treats a re-registered contributor as a new machine.
	respawn func(id int64) *core.Supernode
	rng     *sim.Rand

	orphaned  int64
	repaired  int64
	cloudHops int64 // repairs that left the fog for cloud or edge
	lapsed    int64
	repairs   int64 // scheduled orphan repairs not yet fired

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

// StartInjector binds a schedule to an engine and fog and schedules every
// event up to the horizon; call it once, before running the engine. A nil
// schedule is a fault-free run. respawn mints the fresh instance a recovery
// registers and must be non-nil when the schedule has recoveries; rng seeds
// the oracle's detection-delay draws; stats may be nil. A non-nil mon
// replaces the oracle: it tracks every registered supernode from now on, and
// orphans of a killed one are repaired when it detects the silence.
func StartInjector(sched *Schedule, engine *sim.Engine, fog *core.Fog, respawn func(id int64) *core.Supernode, rng *sim.Rand, stats *obs.FaultStats, mon *health.Monitor) *Injector {
	in := &Injector{replay: newReplay(sched, stats), engine: engine, fog: fog, respawn: respawn, rng: rng, mon: mon}
	if mon != nil {
		in.pendingDetect = make(map[int64][]pendingRepair)
		mon.OnDetect(in.onDetect)
		for _, sn := range fog.Supernodes() {
			mon.Track(sn.ID)
		}
		mon.Start()
	}
	if sched != nil {
		for _, ev := range in.due() {
			engine.ScheduleAt(ev.At, func() { in.apply(in, engine.Now(), ev) })
		}
	}
	return in
}

// kill fails the supernode and schedules each orphan's repair after its
// detection delay. A supernode the fog does not hold is not killed.
func (in *Injector) kill(ev Event) bool {
	if _, up := in.fog.Supernode(ev.Node); !up {
		return false
	}
	killAt := in.engine.Now()
	orphans := in.fog.FailSupernode(ev.Node)
	in.orphaned += int64(len(orphans))
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
		in.engine.Schedule(delay, func() {
			in.repairs--
			in.repair(p, killAt)
		})
	}
	if in.mon != nil {
		in.mon.Kill(ev.Node)
	}
	return true
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
	if k := p.Attached.Kind(); k == core.AttachCloud || k == core.AttachEdge {
		in.cloudHops++
	}
	if in.stats != nil {
		in.stats.InterruptionNs.Observe(int64(in.engine.Now() - killAt))
	}
}

// recover registers a fresh instance of the supernode.
func (in *Injector) recover(id int64) bool {
	sn := in.respawn(id)
	if sn == nil || in.fog.RegisterSupernode(sn) != nil {
		return false
	}
	if in.mon != nil {
		in.mon.Recover(id)
	}
	return true
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
	in.fold()
	in.stats.Orphaned.Add(in.orphaned)
	in.stats.Lapsed.Add(in.lapsed)
	in.stats.PendingEnd.Add(in.repairs)
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
