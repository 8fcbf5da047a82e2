// Package qoe runs the segment-level QoE simulation behind the paper's
// Figures 9-11: one serving node (a supernode, datacenter, or edge server)
// streams game video to a set of players over a shared uplink, with the
// receiver-driven encoding rate adaptation (§III-B) and the deadline-driven
// sender buffer scheduling (§III-C) individually switchable.
//
// Each player's stream produces one segment per frame interval; segments
// pass through the node's sender buffer, transmit serially over the uplink,
// and arrive after the player's propagation latency. A player is satisfied
// when at least 95% of its packets arrive within its game's network latency
// budget; continuity is the on-time packet fraction.
package qoe

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"cloudfog/internal/adapt"
	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/sched"
	"cloudfog/internal/sim"
	"cloudfog/internal/stream"
)

// Impairment supplies network fault state as pure functions of virtual
// time: the fault package's compiled Schedule implements it. Purity is what
// keeps chaos runs deterministic — the same query time always gets the same
// answer, regardless of sweep parallelism or instrumentation.
type Impairment interface {
	// ExtraLatency is the additional one-way propagation delay at now.
	ExtraLatency(now time.Duration) time.Duration
	// LossFrac is the wire loss fraction at now, in [0, 1].
	LossFrac(now time.Duration) float64
	// BandwidthScale is the uplink capacity multiplier at now (1 = clean).
	BandwidthScale(now time.Duration) float64
}

// Options toggles the two CloudFog strategies and carries their parameters.
type Options struct {
	// Adaptation enables receiver-driven encoding rate adaptation.
	Adaptation bool

	Adapt adapt.Config
	// Sched configures the sender buffer; its Deadline switch is the
	// deadline-driven scheduling strategy (EDF ordering + Eq. 14 drops).
	// When Obs is set, Obs.Sink replaces its Sink.
	Sched  sched.Config
	Stream stream.Config

	// EstimationInterval is the receiver's occupancy-calculation cadence
	// (§III-B does not fix one; estimating every video frame makes the
	// h₁/h₂ streaks elapse in seconds and synchronizes bitrate
	// oscillation across players). DefaultOptions sets 10 frame intervals;
	// with Adaptation on, an interval shorter than one frame is an error.
	EstimationInterval time.Duration
	// Warmup excludes the startup transient from the meters.
	Warmup time.Duration
	// PrebufferSegments is the receiver's startup buffer (in segments).
	PrebufferSegments int
	// SizeJitterSigma is the lognormal sigma of per-segment size
	// variation around the nominal bitrate (game video mixes small
	// P-frames with large I-frames). Zero disables jitter.
	SizeJitterSigma float64
	// Seed drives the per-run randomness (frame-size jitter).
	Seed int64

	// Impair, when non-nil, modulates the wire: extra propagation latency,
	// deterministic packet loss, and uplink bandwidth scaling, all queried
	// at the moment each segment touches the link. Nil means a clean wire
	// and costs one nil-check per segment.
	Impair Impairment

	// Obs, when non-nil, receives the node's observability: segment
	// lifecycle counters, the delivery-latency histogram and, through
	// Obs.Engine, the event counters (all folded from always-on per-run
	// tallies once the run ends), and per-event emission through Obs.Sink.
	// Counter updates are atomic, so one bundle can aggregate parallel sweep
	// workers. Obs never influences simulation control flow: results are
	// bit-identical with it on or off.
	Obs *obs.NodeStats
}

// DefaultOptions returns both strategies enabled with paper defaults
// (CloudFog/A).
func DefaultOptions() Options {
	return Options{
		Adaptation:         true,
		Adapt:              adapt.DefaultConfig(),
		Sched:              sched.DefaultConfig(),
		Stream:             stream.DefaultConfig(),
		EstimationInterval: 10 * time.Second / 30,
		Warmup:             5 * time.Second,
		PrebufferSegments:  2,
		SizeJitterSigma:    0.3,
		Seed:               1,
	}
}

// BasicOptions returns both strategies disabled (CloudFog/B and the
// baselines' serving behavior).
func BasicOptions() Options {
	o := DefaultOptions()
	o.Adaptation = false
	o.Sched.Deadline = false
	return o
}

// PlayerSpec describes one player attached to the serving node.
type PlayerSpec struct {
	ID int64
	// Game determines latency budget, loss tolerance and starting level.
	Game game.Game
	// Latency is the one-way serving-node → player propagation delay.
	Latency time.Duration
	// InboundDelay is the upstream share of the response path charged
	// before a segment can be rendered: for a fog supernode, the
	// cloud→supernode update latency; zero when the cloud itself serves.
	InboundDelay time.Duration
	// LevelCap, when positive, bounds the encoding ladder below the game's
	// matched level — the overload ladder's degradation cap on the serving
	// node. Zero leaves the ladder unconstrained.
	LevelCap int
}

// PlayerResult summarizes one player's stream after the run.
type PlayerResult struct {
	ID           int64
	GameID       int
	Continuity   float64
	Satisfied    bool
	MeanLatency  time.Duration // mean action→arrival latency of delivered segments
	FinalLevel   int
	LevelChanges int
	Stalls       int
	Segments     int64
	// PacketsOnTime and PacketsTotal are the continuity meter's raw
	// post-warmup tallies. Continuity == PacketsOnTime/PacketsTotal; the
	// integers are what epoch-sharded runs merge across epochs, exactly.
	PacketsOnTime int64
	PacketsTotal  int64
}

// nodeSim simulates one serving node streaming to its players.
//
// It keeps its own virtual clock and needs no event queue, because its events
// come from sources that are each already in time order. Generation visits
// the players in one permanent cyclic order: their phases within the frame
// never decrease with the player index, all are shorter than the frame, and
// all repeat with the frame as their period. Estimation does the same over
// its interval, which is why that may not be shorter than a frame. The uplink
// has at most one transmission pending. So the next event is the least of two
// cursors and one slot under (at, stamp), where stamp counts scheduling acts
// in program order exactly as the event engine's seq would — runUntil computes
// that engine's (at, seq) total order without a heap. Arrivals take no part in
// that order: landing a segment touches only its own player's receiver and
// meters (and commutative node tallies), which only that player's estimate
// and the results read, so each player holds its arrivals in a sorted
// in-flight list and lands them at its own next event (DESIGN.md §8).
//
// The per-segment path (generate → enqueue → pump → transmit → land, one
// cycle per player per frame) is allocation-free in steady state: segments
// are recycled through a per-run pool once the buffer or receiver is done
// with them.
//
// Pool.RunNode drives every run: reset, start, runUntil, flushObs and
// appendResults.
type nodeSim struct {
	opts   Options
	buffer sched.Buffer

	// sessions is indexed by stream: a session's position is the number its
	// encoder stamps on every segment (stream.Segment.Stream), which is how a
	// segment coming back out of the sender buffer finds its player.
	sessions []*session
	// sessionBy exists for start's duplicate check and nothing else.
	sessionBy map[int64]*session
	// sessArena is the backing store for sessions, sized for the run's players
	// before start takes a slot: growing it would move live sessions.
	sessArena []session
	rng       *sim.Rand
	// mults holds frame-size multipliers drawn ahead from rng, multBlock at a
	// time; generate takes mults[multNext]. A run starts with it empty.
	mults    []float64
	multNext int

	now time.Duration
	// stamp is the next scheduling stamp (nextStamp), so it also counts
	// events scheduled; fired counts merge events fired plus arrivals landed.
	stamp, fired uint64
	// genCur and estCur index the session whose generation / estimate is
	// next in its stream.
	genCur, estCur int
	// The uplink's one pending completion: while busy, txSeg leaves the wire
	// for player txTo at (txAt, txStamp).
	busy    bool
	txAt    time.Duration
	txStamp uint64
	txSeg   *stream.Segment
	txTo    *session

	segPool []*stream.Segment
	// segAll tracks every segment this sim ever allocated, including ones
	// in flight when the run ends (those never come back through
	// putSegment). reset re-deals the full set at the next run's start, so
	// pooled runs stop allocating segments at peak concurrency.
	segAll []*stream.Segment

	// Always-on per-run lifecycle tallies (plain ints: one increment per
	// event, no atomics, no allocations). flushObs folds them into opts.Obs
	// when observation is enabled; they also pin the lifecycle identity
	// generated == delivered + dropped + in-flight.
	genCount, delivCount, dropCount int64
	onTimeCount, lateCount          int64
	levelUpCount, levelDownCount    int64
}

// arrival is one segment on the wire to its player, landing at (at, stamp).
type arrival struct {
	at    time.Duration
	stamp uint64
	seg   *stream.Segment
}

// before reports whether (at, stamp) sorts ahead of (at2, stamp2): earlier
// first, same-instant events in the order they were scheduled.
func before(at time.Duration, stamp uint64, at2 time.Duration, stamp2 uint64) bool {
	return at < at2 || at == at2 && stamp < stamp2
}

// Stream is one stream's serving state at its sender (§III-B): the encoder
// that sizes its segments and the controller that moves its level. It is
// passive — no clock, no goroutine — so a node simulation drives it in
// virtual time and a live supernode (internal/live) from its frame clock.
type Stream struct {
	encoder stream.Encoder
	ctrl    adapt.Controller
}

// Init readies the stream for player id of game g on cfg's segments, at the
// game's matched level lowered to a positive levelCap below it: the ceiling
// the controller adapts under. It overwrites every field of s.
func (s *Stream) Init(cfg stream.Config, ac adapt.Config, id int64, g game.Game, levelCap int) {
	s.ctrl.Init(ac, g)
	if levelCap > 0 {
		s.ctrl.SetMaxLevel(levelCap)
	}
	s.encoder = *stream.NewEncoder(cfg, id, s.ctrl.Level())
}

// Encode fills seg as the next segment, at the current level (EncodeInto).
func (s *Stream) Encode(seg *stream.Segment, actionTime, enqueued time.Duration) {
	s.encoder.EncodeInto(seg, actionTime, enqueued, s.ctrl.Game())
}

// Observe feeds one occupancy estimate r (Eq. 8) to the controller and moves
// the encoder with it, returning the controller's decision.
func (s *Stream) Observe(r float64) adapt.Decision {
	d := s.ctrl.Observe(r)
	if d != adapt.Hold {
		s.encoder.SetLevel(s.ctrl.Level())
	}
	return d
}

// Level returns the level the next segment is encoded at.
func (s *Stream) Level() game.QualityLevel { return s.encoder.Level() }

// session holds one player's per-run state: its Stream and the receiver its
// segments land in. Every component is embedded by value — the encoder,
// controller, receiver buffer, meter, and estimator are all flat structs — so
// a session is a single contiguous record and the arena behind sessions is
// the only allocation the player set needs beyond each player's in-flight list.
type session struct {
	spec PlayerSpec
	Stream
	recv  stream.ReceiverBuffer
	meter stream.ContinuityMeter

	// When this player's next generation and estimate fire.
	genAt, estAt       time.Duration
	genStamp, estStamp uint64
	// inflight is sorted by (at, stamp); land takes from its front.
	inflight []arrival

	// est is the Eq. 7 buffered-size estimator driving adaptation; the
	// receiver measures its download rate over each estimation interval.
	est            adapt.OccupancyEstimator
	bytesSinceTick int
	lastTick       time.Duration

	latSum     time.Duration
	delivered  int64
	levelMoves int
}

// reset readies the simulation for a node with the given uplink bandwidth
// (bits/second), as if nothing had run on it, while keeping what earlier runs
// grew: the sender buffer (Reset), the generator (Reseed), the emptied
// multiplier block, the session arena with each in-flight list, the session
// index, and every segment, dealt back into the pool. Every other field
// starts at its zero value.
func (s *nodeSim) reset(opts Options, uplink int64) error {
	if uplink <= 0 {
		return fmt.Errorf("qoe: non-positive uplink %d", uplink)
	}
	if err := opts.Stream.Validate(); err != nil {
		return err
	}
	if opts.Adaptation && opts.EstimationInterval < opts.Stream.SegmentDuration {
		return fmt.Errorf("qoe: estimation interval %v shorter than a %v frame",
			opts.EstimationInterval, opts.Stream.SegmentDuration)
	}
	schedCfg := opts.Sched
	if opts.Obs != nil {
		schedCfg.Sink = opts.Obs.Sink
	}
	if s.rng == nil {
		s.rng = sim.NewRand(opts.Seed)
	} else {
		s.rng.Reseed(opts.Seed)
	}
	if s.sessionBy == nil {
		s.sessionBy = make(map[int64]*session)
	}
	clear(s.sessionBy)
	*s = nodeSim{
		opts:      opts,
		buffer:    s.buffer,
		sessions:  s.sessions[:0],
		sessionBy: s.sessionBy,
		sessArena: s.sessArena[:0],
		rng:       s.rng,
		mults:     s.mults[:0],
		segPool:   append(s.segPool[:0], s.segAll...),
		segAll:    s.segAll,
	}
	s.buffer.Reset(schedCfg, opts.Stream, uplink)
	return nil
}

// multBlock is how many frame-size multipliers one refill draws. Each is an
// independent Exp of a normal draw, so a block's run overlaps them instead of
// stalling every segment on its own; the values and their order are the ones
// drawing per segment gives, because rng has no other consumer and every run
// reseeds it (DESIGN.md §8).
const multBlock = 128

// sizeMult returns the next mean-one lognormal frame-size multiplier,
// E[e^(N(-s²/2, s))] = 1, refilling the block when it is spent.
func (s *nodeSim) sizeMult(sigma float64) float64 {
	if s.multNext == len(s.mults) {
		s.mults = slices.Grow(s.mults[:0], multBlock)[:multBlock]
		for i := range s.mults {
			s.mults[i] = s.rng.LogNormal(-sigma*sigma/2, sigma)
		}
		s.multNext = 0
	}
	m := s.mults[s.multNext]
	s.multNext++
	return m
}

// draws is the RNG draws the run consumed: the generator's count less the
// block's unused tail.
func (s *nodeSim) draws() uint64 {
	return s.rng.Draws() - uint64(len(s.mults)-s.multNext)
}

// getSegment takes a segment from the per-run pool (or allocates the pool's
// first copies); putSegment returns one once no queue, meter, or receiver
// will touch it again.
func (s *nodeSim) getSegment() *stream.Segment {
	if n := len(s.segPool); n > 0 {
		seg := s.segPool[n-1]
		s.segPool[n-1] = nil
		s.segPool = s.segPool[:n-1]
		return seg
	}
	seg := new(stream.Segment)
	s.segAll = append(s.segAll, seg)
	return seg
}

func (s *nodeSim) putSegment(seg *stream.Segment) {
	s.segPool = append(s.segPool, seg)
}

// emit sends a structured event when a sink is attached. One nil-check per
// call site when observation is off; the Event is a value, so an enabled
// emission still costs no allocation.
func (s *nodeSim) emit(kind obs.EventKind, at time.Duration, player, a, b int64) {
	if s.opts.Obs == nil || s.opts.Obs.Sink == nil {
		return
	}
	s.opts.Obs.Sink(obs.Event{Kind: kind, At: at, Player: player, A: a, B: b})
}

// dropSegment accounts a segment lost in full: the always-on tally plus the
// optional drop event carrying the packets lost.
func (s *nodeSim) dropSegment(now time.Duration, seg *stream.Segment) {
	s.dropCount++
	s.emit(obs.EventSegmentDropped, now, seg.PlayerID, int64(seg.RemainingPackets()), 0)
}

// start attaches the players to a freshly reset sim, player i on stream i,
// and schedules each one's first generation (and estimate). Phases are
// staggered across the frame interval so segments do not arrive in lockstep
// bursts. A repeated player ID refuses the run.
func (s *nodeSim) start(players []PlayerSpec) error {
	if cap(s.sessArena) < len(players) {
		s.sessArena = make([]session, 0, len(players))
	}
	frame := s.opts.Stream.SegmentDuration
	for i, spec := range players {
		if _, dup := s.sessionBy[spec.ID]; dup {
			return fmt.Errorf("qoe: duplicate player id %d", spec.ID)
		}
		// Take the next slot of the arena; the assignment overwrites every
		// field of a recycled slot but keeps its in-flight list's storage.
		s.sessArena = s.sessArena[:i+1]
		ss := &s.sessArena[i]
		*ss = session{spec: spec, inflight: ss.inflight[:0]}
		ss.Init(s.opts.Stream, s.opts.Adapt, spec.ID, spec.Game, spec.LevelCap)
		ss.encoder.SetStream(i)
		bitrate := ss.Level().Bitrate
		ss.recv = *stream.NewReceiverBuffer(s.opts.Stream, bitrate)
		ss.recv.SetPrebuffer(float64(s.opts.PrebufferSegments * s.opts.Stream.SegmentBytes(bitrate)))
		offset := time.Duration(int64(frame) * int64(i) / int64(len(players)))
		ss.genAt, ss.genStamp = offset, s.nextStamp()
		if s.opts.Adaptation {
			// Periodic receiver-side occupancy estimation (§III-B: the
			// client calculates r a number of times consecutively).
			ss.estAt, ss.estStamp = offset, s.nextStamp()
		}
		s.sessions = append(s.sessions, ss)
		s.sessionBy[spec.ID] = ss
	}
	return nil
}

// runUntil fires every event due at or before deadline in (at, stamp) order,
// advances the clock to deadline, and lands every arrival due by then.
func (s *nodeSim) runUntil(deadline time.Duration) {
	const (
		generation = iota
		estimation
		transmission
	)
	for len(s.sessions) > 0 {
		ss := s.sessions[s.genCur]
		at, stamp, source := ss.genAt, ss.genStamp, generation
		if s.opts.Adaptation {
			if es := s.sessions[s.estCur]; before(es.estAt, es.estStamp, at, stamp) {
				ss, at, stamp, source = es, es.estAt, es.estStamp, estimation
			}
		}
		if s.busy && before(s.txAt, s.txStamp, at, stamp) {
			ss, at, source = s.txTo, s.txAt, transmission
		}
		if at > deadline {
			break
		}
		s.now = at
		s.fired++
		switch source {
		case generation:
			s.generate(ss)
		case estimation:
			s.estimate(ss)
		case transmission:
			s.transmitted(ss)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
	for _, ss := range s.sessions {
		s.land(ss, s.now, s.stamp)
	}
}

// nextStamp stamps one scheduling act: the two in start, the re-arm in
// generate and in estimate, the transmission in pump, the arrival in
// transmitted — where the engine-backed simulation scheduled an event.
func (s *nodeSim) nextStamp() uint64 {
	s.stamp++
	return s.stamp - 1
}

// next advances a stream's cursor to the following player.
func (s *nodeSim) next(cur int) int {
	if cur++; cur == len(s.sessions) {
		return 0
	}
	return cur
}

// land delivers the player's arrivals that sort ahead of (at, stamp).
func (s *nodeSim) land(ss *session, at time.Duration, stamp uint64) {
	q := ss.inflight
	k := 0
	for k < len(q) && before(q[k].at, q[k].stamp, at, stamp) {
		s.deliver(ss, q[k].at, q[k].seg)
		k++
	}
	if k > 0 {
		ss.inflight = q[:copy(q, q[k:])]
	}
}

// estimate runs one receiver-driven occupancy calculation (Eq. 7: the
// buffered-size estimate integrates download rate minus playback rate) and
// applies any resulting encoding-level change, then schedules the next
// calculation.
func (s *nodeSim) estimate(ss *session) {
	now := s.now
	s.land(ss, now, ss.estStamp)
	ss.recv.Advance(now)
	dt := (now - ss.lastTick).Seconds()
	ss.lastTick = now
	var downloadBits float64
	if dt > 0 {
		downloadBits = float64(ss.bytesSinceTick) * 8 / dt
	}
	ss.bytesSinceTick = 0
	playbackBits := float64(ss.Level().Bitrate)
	if !ss.recv.Playing() {
		playbackBits = 0
	}
	ss.est.Update(now, downloadBits, playbackBits)
	r := ss.est.Segments(s.opts.Stream.SegmentBytes(ss.Level().Bitrate))
	if d := ss.Observe(r); d != adapt.Hold {
		lvl := ss.Level()
		ss.recv.SetPlaybackBitrate(lvl.Bitrate)
		ss.levelMoves++
		dir := int64(1)
		if d == adapt.AdjustedUp {
			s.levelUpCount++
		} else {
			s.levelDownCount++
			dir = -1
		}
		s.emit(obs.EventLevelChange, now, ss.spec.ID, int64(lvl.Level), dir)
	}
	ss.estAt, ss.estStamp = now+s.opts.EstimationInterval, s.nextStamp()
	s.estCur = s.next(s.estCur)
}

// generate produces the next segment of a session and schedules the
// following one a frame interval later. It lands the player's due arrivals
// first — nothing here reads them, but a player without adaptation has no
// other event of its own, and would otherwise hold every segment of the run.
func (s *nodeSim) generate(ss *session) {
	now := s.now
	s.land(ss, now, ss.genStamp)
	actionTime := now - ss.spec.InboundDelay
	seg := s.getSegment()
	ss.Encode(seg, actionTime, now)
	if sigma := s.opts.SizeJitterSigma; sigma > 0 {
		seg.Bytes = int(float64(seg.Bytes) * s.sizeMult(sigma))
		if seg.Bytes < 1 {
			seg.Bytes = 1
		}
		seg.Packets = (seg.Bytes + s.opts.Stream.PacketSize - 1) / s.opts.Stream.PacketSize
	}
	s.genCount++
	s.emit(obs.EventSegmentGenerated, now, ss.spec.ID, int64(seg.Bytes), 0)
	s.buffer.Enqueue(now, seg)
	// Segments shed by the queue bound (the arrival or evicted lenient
	// segments) are lost in full, and nothing touches them again.
	if evicted := s.buffer.Evicted(); len(evicted) > 0 {
		for _, ev := range evicted {
			if now >= s.opts.Warmup {
				s.sessions[ev.Stream].meter.RecordSegment(ev, false)
			}
			s.dropSegment(now, ev)
			s.putSegment(ev)
		}
		s.buffer.ClearEvicted()
	}
	s.pump()
	ss.genAt, ss.genStamp = now+s.opts.Stream.SegmentDuration, s.nextStamp()
	s.genCur = s.next(s.genCur)
}

// pump starts a transmission if the uplink is idle and segments are queued.
// Fully-dropped segments never transmit, but their packets still count as
// lost for continuity purposes.
func (s *nodeSim) pump() {
	if s.busy {
		return
	}
	now := s.now
	for {
		seg := s.buffer.DequeueAny(now)
		if seg == nil {
			return
		}
		ss := s.sessions[seg.Stream]
		if seg.RemainingPackets() == 0 {
			if now >= s.opts.Warmup {
				ss.meter.RecordSegment(seg, false)
			}
			s.dropSegment(now, seg)
			s.putSegment(seg)
			continue
		}
		if imp := s.opts.Impair; imp != nil {
			// Bandwidth collapse: rescale the uplink for this transmission
			// from the impairment window active right now.
			s.buffer.SetBandwidthScale(imp.BandwidthScale(now))
		}
		s.busy, s.txSeg, s.txTo = true, seg, ss
		s.txAt, s.txStamp = now+max(s.buffer.TransmissionTime(seg), 0), s.nextStamp()
		return
	}
}

// transmitted completes the pending uplink transmission: the segment reaches
// its player after the propagation latency, and the uplink moves on.
func (s *nodeSim) transmitted(ss *session) {
	seg := s.txSeg
	s.busy = false
	now := s.now
	prop := ss.spec.Latency
	if imp := s.opts.Impair; imp != nil {
		// Wire loss: the fraction of the segment's surviving packets
		// shed by the loss window active when it leaves the uplink.
		// Deterministic rounding, no runtime randomness.
		if lf := imp.LossFrac(now); lf > 0 {
			rem := seg.RemainingPackets()
			lost := int(float64(rem)*lf + 0.5)
			if lost >= rem {
				// The whole segment died on the wire.
				if now >= s.opts.Warmup {
					ss.meter.RecordSegment(seg, false)
				}
				s.dropSegment(now, seg)
				s.putSegment(seg)
				s.pump()
				return
			}
			seg.Dropped += lost
		}
		prop += imp.ExtraLatency(now)
	}
	s.buffer.RecordPropagation(seg.Stream, prop)
	s.emit(obs.EventSegmentTransmitted, now, seg.PlayerID,
		int64(seg.RemainingBytes(s.opts.Stream.PacketSize)), 0)
	// The list is already sorted unless the wire's extra latency fell between
	// two transmissions: insert from the tail.
	a := arrival{at: now + max(prop, 0), stamp: s.nextStamp(), seg: seg}
	q := append(ss.inflight, a)
	i := len(q) - 1
	for ; i > 0 && q[i-1].at > a.at; i-- {
		q[i] = q[i-1]
	}
	q[i] = a
	ss.inflight = q
	s.pump()
}

// deliver lands a segment at its player at its arrival time at: meters record
// on-time packets and the receiver buffer absorbs the bytes, which the
// player's next estimate turns into its download rate.
func (s *nodeSim) deliver(ss *session, at time.Duration, seg *stream.Segment) {
	s.fired++
	onTime := at <= seg.ExpectedArrival()
	s.delivCount++
	if onTime {
		s.onTimeCount++
	} else {
		s.lateCount++
	}
	if o := s.opts.Obs; o != nil {
		if o.DeliveryLatencyNs != nil {
			o.DeliveryLatencyNs.Observe(int64(at - seg.ActionTime))
		}
		if o.Sink != nil {
			b := int64(0)
			if onTime {
				b = 1
			}
			o.Sink(obs.Event{Kind: obs.EventSegmentDelivered, At: at,
				Player: seg.PlayerID, A: int64(at - seg.ActionTime), B: b})
		}
	}
	if at >= s.opts.Warmup {
		ss.meter.RecordSegment(seg, onTime)
		ss.latSum += at - seg.ActionTime
		ss.delivered++
	}
	n := seg.RemainingBytes(s.opts.Stream.PacketSize)
	ss.recv.OnArrival(at, n)
	ss.bytesSinceTick += n
	s.putSegment(seg)
}

// lifecycle returns the always-on per-run segment tallies. The identity
// generated == delivered + dropped + inFlight holds at any stopping point:
// every generated segment is eventually delivered, discarded, or still
// queued/in transit when the horizon hits.
func (s *nodeSim) lifecycle() (generated, delivered, dropped, inFlight int64) {
	return s.genCount, s.delivCount, s.dropCount,
		s.genCount - s.delivCount - s.dropCount
}

// flushObs folds the per-run tallies (and the sender buffer's packet-drop
// counters) into the attached NodeStats. Pool.RunNode calls it once per run,
// so a registry shared by many runs counts each exactly once.
func (s *nodeSim) flushObs() {
	o := s.opts.Obs
	if o == nil {
		return
	}
	o.SegmentsGenerated.Add(s.genCount)
	o.SegmentsDelivered.Add(s.delivCount)
	o.SegmentsDropped.Add(s.dropCount)
	o.SegmentsInFlightEnd.Add(s.genCount - s.delivCount - s.dropCount)
	o.SegmentsOnTime.Add(s.onTimeCount)
	o.SegmentsLate.Add(s.lateCount)
	o.LevelUps.Add(s.levelUpCount)
	o.LevelDowns.Add(s.levelDownCount)
	_, _, droppedPackets, _, _ := s.buffer.Stats()
	o.PacketsDropped.Add(droppedPackets)
	for _, ss := range s.sessions {
		o.Stalls.Add(int64(ss.recv.StallCount()))
	}
	if o.Engine != nil {
		o.Engine.Scheduled.Add(int64(s.stamp))
		o.Engine.Executed.Add(int64(s.fired))
	}
}

// appendResults appends every player's summary, as of the last runUntil, to
// dst and returns it, so the pool keeps one result buffer across runs instead
// of allocating per node.
func (s *nodeSim) appendResults(dst []PlayerResult) []PlayerResult {
	for _, ss := range s.sessions {
		r := PlayerResult{
			ID:            ss.spec.ID,
			GameID:        ss.spec.Game.ID,
			Continuity:    ss.meter.Continuity(),
			Satisfied:     ss.meter.Satisfied(),
			FinalLevel:    ss.Level().Level,
			LevelChanges:  ss.levelMoves,
			Stalls:        ss.recv.StallCount(),
			Segments:      ss.delivered,
			PacketsOnTime: ss.meter.OnTime(),
			PacketsTotal:  ss.meter.Total(),
		}
		if ss.delivered > 0 {
			r.MeanLatency = ss.latSum / time.Duration(ss.delivered)
		}
		dst = append(dst, r)
	}
	return dst
}

// Summary aggregates player results.
type Summary struct {
	Players        int
	MeanContinuity float64
	SatisfiedFrac  float64
}

// Summarize aggregates a result set.
func Summarize(results []PlayerResult) Summary {
	var s Summary
	s.Players = len(results)
	if s.Players == 0 {
		return s
	}
	for _, r := range results {
		s.MeanContinuity += r.Continuity
		if r.Satisfied {
			s.SatisfiedFrac++
		}
	}
	n := float64(s.Players)
	s.MeanContinuity /= n
	s.SatisfiedFrac /= n
	return s
}

// RunNode is the one-call entry: simulate a serving node with the given
// uplink and players for the duration and return the per-player results. It
// is a one-run Pool.
func RunNode(opts Options, uplink int64, players []PlayerSpec, duration time.Duration) ([]PlayerResult, error) {
	return NewPool().RunNode(opts, uplink, players, duration)
}

// Pool holds one node simulation across back-to-back node runs, so the
// allocation-heavy state reset keeps — the sender buffer with its Eq. 13
// estimators, the session arena with each session's in-flight list, the
// session index, the segment pool, and one generator re-seeded per run with
// its multiplier block — is allocated once, beside the result slice. A figure
// that simulates hundreds of serving nodes per sweep point pays the setup
// allocations once instead of per node — once per world, since the pools
// outlive the point (experiment.World holds them). A Pool serves one
// goroutine; results are bit-identical to a fresh pool's — recycled sessions
// and segments are overwritten in full before use, a re-seeded generator is
// in the state a fresh one starts in, and the block starts empty.
type Pool struct {
	sim     nodeSim
	results []PlayerResult
	draws   uint64
}

// Draws returns the cumulative RNG draws every run on this pool consumed —
// the flight recorder's per-shard data-plane witness. A multiplier drawn
// ahead and never used is not counted.
func (p *Pool) Draws() uint64 { return p.draws }

// NewPool returns an empty pool.
func NewPool() *Pool { return new(Pool) }

// RunNode simulates a serving node with the given uplink and players for the
// duration on the pool's simulation. The returned slice is valid until the
// next RunNode call on this pool; callers that keep results across calls must
// copy them out.
func (p *Pool) RunNode(opts Options, uplink int64, players []PlayerSpec, duration time.Duration) ([]PlayerResult, error) {
	s := &p.sim
	if err := s.reset(opts, uplink); err != nil {
		return nil, err
	}
	if err := s.start(players); err != nil {
		return nil, err
	}
	s.runUntil(duration)
	s.flushObs()
	p.results = s.appendResults(p.results[:0])
	p.draws += s.draws()
	return p.results, nil
}

// EachNode calls fn once for every index in [0, n): worker k of len(pools) —
// never more workers than indices — takes k, k+workers, ... on pools[k],
// worker 0 on the calling goroutine. A node run is pure in its arguments, so
// a caller that stores what fn computes in a slot of i's own gets the same
// bytes at any worker count. A worker stops at its first error and EachNode
// returns the lowest-numbered worker's.
func EachNode(pools []*Pool, n int, fn func(p *Pool, i int) error) error {
	workers := min(len(pools), n)
	errs := make([]error, workers)
	run := func(wk int) {
		for i := wk; i < n && errs[wk] == nil; i += workers {
			errs[wk] = fn(pools[wk], i)
		}
	}
	var wg sync.WaitGroup
	for wk := 1; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(wk)
		}()
	}
	if workers > 0 {
		run(0)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
