package obs

import (
	"sync"
	"time"
)

// EventKind discriminates structured observability events.
type EventKind uint8

const (
	// EventSegmentGenerated fires when an encoder produces a segment.
	// Player = stream owner, A = segment bytes.
	EventSegmentGenerated EventKind = iota + 1
	// EventSegmentTransmitted fires when a segment finishes its uplink
	// transmission. A = remaining bytes on the wire.
	EventSegmentTransmitted
	// EventSegmentDropped fires when a segment is lost in full (queue-bound
	// eviction or every packet dropped). A = packets lost.
	EventSegmentDropped
	// EventSegmentDelivered fires when a segment lands at its player.
	// A = action→arrival latency in nanoseconds, B = 1 if on time.
	EventSegmentDelivered
	// EventLevelChange fires on a bitrate ladder move. A = new level,
	// B = +1 for up, -1 for down.
	EventLevelChange
	// EventDropDecision fires when the Eq. 14 deadline repair sheds
	// packets. Player = the late segment's owner, A = packet deficit. It
	// skips 6 and 7, the retired assign and failover kinds: the forced-tie
	// digest hashes kind numbers.
	EventDropDecision EventKind = iota + 3
)

// String names the kind for logs and tests.
func (k EventKind) String() string {
	switch k {
	case EventSegmentGenerated:
		return "segment_generated"
	case EventSegmentTransmitted:
		return "segment_transmitted"
	case EventSegmentDropped:
		return "segment_dropped"
	case EventSegmentDelivered:
		return "segment_delivered"
	case EventLevelChange:
		return "level_change"
	case EventDropDecision:
		return "drop_decision"
	default:
		return "unknown"
	}
}

// Event is one structured observability event. It is a small value struct:
// emitting one costs a nil-check and a direct func call, never an
// allocation or interface dispatch.
type Event struct {
	Kind   EventKind
	At     time.Duration // virtual (sim) or wall-clock-relative (live) time
	Player int64         // player id, when meaningful
	A, B   int64         // kind-specific payload, see the kind docs
}

// EventSink receives events. A nil sink disables emission; callers must
// nil-check before calling. Sinks must be safe for concurrent use: parallel
// sweeps share one.
type EventSink func(Event)

// EventLog is a bounded, concurrency-safe ring of the most recent events —
// the reference sink for tests and post-run inspection.
type EventLog struct {
	mu    sync.Mutex
	ring  []Event
	next  int
	total int64
}

// NewEventLog returns a ring keeping the last capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]Event, 0, capacity)}
}

// Sink returns the log's EventSink.
func (l *EventLog) Sink() EventSink { return l.record }

func (l *EventLog) record(e Event) {
	l.mu.Lock()
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, e)
	} else {
		l.ring[l.next] = e
	}
	l.next = (l.next + 1) % cap(l.ring)
	l.total++
	l.mu.Unlock()
}

// Total returns how many events were recorded (including overwritten ones).
func (l *EventLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// Events returns the retained events, oldest first.
func (l *EventLog) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.ring))
	if len(l.ring) == cap(l.ring) {
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring...)
	}
	return out
}

// EngineStats counts discrete events. The node simulation reports each run's
// tallies through NodeStats.Engine; sim.Engine itself carries no counters.
type EngineStats struct {
	Scheduled *Counter
	Executed  *Counter
}

// EngineStatsIn binds the canonical engine metrics in a registry.
func EngineStatsIn(r *Registry) *EngineStats {
	return &EngineStats{
		Scheduled: r.Counter("cloudfog_engine_events_scheduled_total", "events queued on the virtual clock"),
		Executed:  r.Counter("cloudfog_engine_events_executed_total", "events fired"),
	}
}

// NodeStats instruments one (or an aggregate of) QoE serving nodes: the
// segment lifecycle, drop outcomes, ladder moves, and delivery latency.
// Counters are shared across sweep workers; all updates are atomic.
type NodeStats struct {
	SegmentsGenerated   *Counter
	SegmentsDelivered   *Counter
	SegmentsDropped     *Counter // lost in full: evictions + all-packets-dropped
	SegmentsInFlightEnd *Counter // generated but neither delivered nor dropped at horizon
	SegmentsOnTime      *Counter
	SegmentsLate        *Counter
	PacketsDropped      *Counter // Eq. 14 partial drops (packets)
	LevelUps            *Counter
	LevelDowns          *Counter
	Stalls              *Counter
	DeliveryLatencyNs   *Histogram

	// Sink, when non-nil, receives per-segment lifecycle events.
	Sink EventSink
	// Engine, when non-nil, receives each node's event counts with the
	// other per-run tallies: events scheduled and events fired, as an
	// engine running the node would have counted them.
	Engine *EngineStats
}

// NodeStatsIn binds the canonical QoE node metrics in a registry. Calling
// it twice on the same registry returns bundles sharing the same
// instruments, so per-worker bundles aggregate naturally.
func NodeStatsIn(r *Registry) *NodeStats {
	return &NodeStats{
		SegmentsGenerated:   r.Counter("cloudfog_qoe_segments_generated_total", "video segments produced by encoders"),
		SegmentsDelivered:   r.Counter("cloudfog_qoe_segments_delivered_total", "segments that arrived at their player"),
		SegmentsDropped:     r.Counter("cloudfog_qoe_segments_dropped_total", "segments lost in full (evicted or fully packet-dropped)"),
		SegmentsInFlightEnd: r.Counter("cloudfog_qoe_segments_inflight_end_total", "segments still queued or in transit when the horizon hit"),
		SegmentsOnTime:      r.Counter("cloudfog_qoe_segments_ontime_total", "delivered segments that met their expected arrival"),
		SegmentsLate:        r.Counter("cloudfog_qoe_segments_late_total", "delivered segments past their expected arrival"),
		PacketsDropped:      r.Counter("cloudfog_qoe_packets_dropped_total", "packets shed by the Eq. 14 deadline repair"),
		LevelUps:            r.Counter("cloudfog_qoe_level_ups_total", "bitrate ladder moves up"),
		LevelDowns:          r.Counter("cloudfog_qoe_level_downs_total", "bitrate ladder moves down"),
		Stalls:              r.Counter("cloudfog_qoe_stalls_total", "receiver buffer underruns"),
		DeliveryLatencyNs:   r.Histogram("cloudfog_qoe_delivery_latency_ns", "action-to-arrival latency of delivered segments", LatencyBucketsNs()),
	}
}

// AssignStats instruments the assignment protocol: join outcomes and
// failover repairs.
type AssignStats struct {
	JoinsFog           *Counter // joins attached to a supernode
	JoinsCloud         *Counter // joins that fell back to a direct cloud connection
	FailoverBackupHits *Counter // orphans absorbed by a recorded backup
	FailoverReassigns  *Counter // orphans that reran the full protocol
}

// AssignStatsIn binds the canonical assignment metrics in a registry.
func AssignStatsIn(r *Registry) *AssignStats {
	return &AssignStats{
		JoinsFog:           r.Counter("cloudfog_assign_joins_fog_total", "joins attached to a supernode"),
		JoinsCloud:         r.Counter("cloudfog_assign_joins_cloud_total", "joins that fell back to the cloud"),
		FailoverBackupHits: r.Counter("cloudfog_assign_failover_backup_total", "failovers absorbed by a recorded backup"),
		FailoverReassigns:  r.Counter("cloudfog_assign_failover_rerun_total", "failovers that reran the full protocol"),
	}
}

// FaultStats instruments the fault-injection subsystem: kill/recover churn,
// orphan repair outcomes, impairment window edges, and the recovery-time
// distributions the resilience figures plot. The orphan ledger identity is
//
//	Orphaned == failover backup hits + failover reruns + Lapsed + PendingEnd
//
// where the failover counters live in AssignStats (the injector drives the
// real assignment protocol), Lapsed counts orphans whose session ended before
// their repair fired, and PendingEnd counts repairs still pending when the
// horizon hit.
type FaultStats struct {
	Kills          *Counter // supernodes killed by the injector
	Recoveries     *Counter // killed supernodes re-registered
	Orphaned       *Counter // players orphaned by kills
	Lapsed         *Counter // orphans gone offline before their repair fired
	PendingEnd     *Counter // orphan repairs still pending at the horizon
	LinkWindows    *Counter // impairment windows entered (loss/latency/bandwidth)
	MTTRNs         *Histogram
	InterruptionNs *Histogram // per-orphan detection→repair interruption
}

// FaultStatsIn binds the canonical fault metrics in a registry.
func FaultStatsIn(r *Registry) *FaultStats {
	return &FaultStats{
		Kills:          r.Counter("cloudfog_fault_kills_total", "supernodes killed by the fault injector"),
		Recoveries:     r.Counter("cloudfog_fault_recoveries_total", "killed supernodes re-registered"),
		Orphaned:       r.Counter("cloudfog_fault_orphaned_total", "players orphaned by supernode kills"),
		Lapsed:         r.Counter("cloudfog_fault_lapsed_total", "orphans whose session ended before repair"),
		PendingEnd:     r.Counter("cloudfog_fault_pending_end_total", "orphan repairs still pending at the horizon"),
		LinkWindows:    r.Counter("cloudfog_fault_link_windows_total", "impairment windows entered"),
		MTTRNs:         r.Histogram("cloudfog_fault_mttr_ns", "supernode kill-to-recover downtime", LatencyBucketsNs()),
		InterruptionNs: r.Histogram("cloudfog_fault_interruption_ns", "per-orphan kill-to-repair interruption", LatencyBucketsNs()),
	}
}

// HealthStats instruments the health subsystem: heartbeat traffic and
// detection outcomes and the supernode degradation ladder. The detection
// ledger identity the reconciliation checks is
//
//	Detected + DetectPending == KillsObserved
//
// and FalsePositives must stay zero on a loss-free profile.
type HealthStats struct {
	HeartbeatsSent *Counter // heartbeat frames sent by live nodes
	HeartbeatsLost *Counter // heartbeats shed by impairment windows
	Detected       *Counter // node failures detected (one per down-transition)
	FalsePositives *Counter // live nodes wrongly suspected
	KillsObserved  *Counter // kills applied while a heartbeat monitor watched
	DetectPending  *Counter // monitored kills still undetected at the horizon
	DetectionNs    *Histogram

	Degraded       *Counter // ladder transitions upward (toward Migrating)
	Restored       *Counter // ladder transitions back down (toward Normal)
	JoinsRejected  *Counter // failovers whose recorded backup refused the player (ladder at Rejecting)
	Migrations     *Counter // players migrated off overloaded supernodes
	TimeDegradedNs *Histogram
}

// HealthStatsIn binds the canonical health metrics in a registry. Like the
// other bundles it is get-or-create, so sweep workers share instruments.
func HealthStatsIn(r *Registry) *HealthStats {
	return &HealthStats{
		HeartbeatsSent: r.Counter("cloudfog_health_heartbeats_sent_total", "heartbeat frames sent by monitored nodes"),
		HeartbeatsLost: r.Counter("cloudfog_health_heartbeats_lost_total", "heartbeats shed by impairment windows"),
		Detected:       r.Counter("cloudfog_health_detected_total", "node failures detected by the heartbeat detector"),
		FalsePositives: r.Counter("cloudfog_health_false_positives_total", "live nodes wrongly suspected"),
		KillsObserved:  r.Counter("cloudfog_health_kills_observed_total", "kills applied while a heartbeat monitor watched"),
		DetectPending:  r.Counter("cloudfog_health_detect_pending_total", "monitored kills still undetected at the horizon"),
		DetectionNs:    r.Histogram("cloudfog_health_detection_latency_ns", "node death to detection latency", LatencyBucketsNs()),
		Degraded:       r.Counter("cloudfog_health_degraded_total", "overload ladder transitions toward degradation"),
		Restored:       r.Counter("cloudfog_health_restored_total", "overload ladder transitions back toward normal"),
		JoinsRejected:  r.Counter("cloudfog_health_joins_rejected_total", "failovers refused by a recorded backup whose overload ladder is rejecting joins"),
		Migrations:     r.Counter("cloudfog_health_migrations_total", "players migrated off overloaded supernodes"),
		TimeDegradedNs: r.Histogram("cloudfog_health_time_degraded_ns", "time supernodes spent degraded before returning to normal", LatencyBucketsNs()),
	}
}

// LinkStats instruments one live wire link (TCP stream or UDP datagram):
// frames and bytes each way, frames shed by a congested send queue or the
// loss process, the sender-side holding delay (queue wait plus injected
// propagation) actually experienced by each frame, and the coalescing
// writer's batching activity (frames folded into multi-frame writes, and
// the number of such writes).
type LinkStats struct {
	SentFrames    *Counter
	SentBytes     *Counter
	DroppedFrames *Counter
	RecvFrames    *Counter
	RecvBytes     *Counter
	BatchedFrames *Counter
	BatchWrites   *Counter
	SendDelayNs   *Histogram
}

// LinkStatsIn binds a link's metrics in a registry under the given link
// label (e.g. "cloud_to_sn7").
func LinkStatsIn(r *Registry, link string) *LinkStats {
	lbl := `{link="` + link + `"}`
	return &LinkStats{
		SentFrames:    r.Counter("cloudfog_link_sent_frames_total"+lbl, "frames written to the wire"),
		SentBytes:     r.Counter("cloudfog_link_sent_bytes_total"+lbl, "payload bytes written to the wire"),
		DroppedFrames: r.Counter("cloudfog_link_dropped_frames_total"+lbl, "frames shed by a full send queue"),
		RecvFrames:    r.Counter("cloudfog_link_recv_frames_total"+lbl, "frames read from the wire"),
		RecvBytes:     r.Counter("cloudfog_link_recv_bytes_total"+lbl, "payload bytes read from the wire"),
		BatchedFrames: r.Counter("cloudfog_link_batched_frames_total"+lbl, "frames written as part of a coalesced multi-frame batch"),
		BatchWrites:   r.Counter("cloudfog_link_batch_writes_total"+lbl, "coalesced multi-frame writes (one writev per batch)"),
		SendDelayNs:   r.Histogram("cloudfog_link_send_delay_ns"+lbl, "sender-side frame holding delay (queue wait + injected propagation)", LatencyBucketsNs()),
	}
}

// FrameStats counts a live supernode's rendered frames by what triggered
// them: a delta's arrival, the frame clock's fallback deadline, or a new
// stream's join (its first frame).
type FrameStats struct {
	Update   *Counter
	Deadline *Counter
	Join     *Counter
}

// FrameStatsIn binds a supernode's frame counters in a registry under the
// given supernode label (e.g. "7").
func FrameStatsIn(r *Registry, sn string) *FrameStats {
	counter := func(trigger string) *Counter {
		return r.Counter(`cloudfog_supernode_frames_total{sn="`+sn+`",trigger="`+trigger+`"}`,
			"frames rendered, by what triggered them (update arrival, frame-clock deadline, stream join)")
	}
	return &FrameStats{Update: counter("update"), Deadline: counter("deadline"), Join: counter("join")}
}
