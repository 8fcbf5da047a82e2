// Package sched implements CloudFog's deadline-driven sender buffer
// scheduling (paper §III-C, Eqs. 12-14, Fig. 4).
//
// A supernode has a single queuing buffer for the video segments of all the
// players it supports. Segments are kept in ascending order of expected
// arrival time t_a = t_m + L̃_r (earliest deadline first), so tight-deadline
// games transmit first. When a segment's estimated response latency
// (Eq. 12) exceeds its game's requirement, the supernode drops packets from
// that segment and the segments queued ahead of it, splitting the D_i
// packets to drop proportionally to each segment's loss tolerance L̃_t
// weighted by an exponential decay φ = e^{-λt} of its queue waiting time
// (Eq. 14) — older segments, which already shed packets in earlier rounds,
// are protected from repeated dropping.
package sched

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/stream"
)

// Config parameterizes the scheduler. Zero-value fields are replaced by
// defaults in NewBuffer.
type Config struct {
	// Lambda is the decay rate λ (per second) of φ = e^{-λt} in Eq. 14.
	// The paper's default is 1.
	Lambda float64
	// PropWindow is m: how many recently sent packets' propagation delays
	// feed the per-player propagation estimate (Eq. 13). Default 10.
	PropWindow int
	// EDF orders the queue by expected arrival time. Disabled, the buffer
	// degenerates to FIFO — kept as an ablation switch.
	EDF bool
	// DropEnabled enables deadline-driven packet dropping. Disabled, the
	// buffer only reorders — the second ablation switch.
	DropEnabled bool
	// UniformDrop replaces Eq. 14's tolerance-and-decay weighting with
	// equal weights across segments — an ablation of the drop policy.
	UniformDrop bool
	// MaxQueueDelay bounds the queue: the buffer holds at most
	// MaxQueueDelay × bandwidth bytes, and segments arriving at a full
	// buffer are tail-dropped. A supernode's single queuing buffer
	// (paper ref [23], an adaptive congestion-control scheme) is
	// bounded; an unbounded queue would turn overload into seconds of
	// delay instead of loss. Zero means unbounded.
	MaxQueueDelay time.Duration
	// Sink, when non-nil, receives an EventDropDecision for every Eq. 14
	// deadline repair (the late segment's player and packet deficit). The
	// hot path pays one nil-check when disabled.
	Sink obs.EventSink
}

// DefaultConfig returns the paper's defaults: λ = 1, m = 10, EDF ordering
// and deadline-driven dropping both enabled.
func DefaultConfig() Config {
	return Config{Lambda: 1, PropWindow: 10, EDF: true, DropEnabled: true,
		MaxQueueDelay: 40 * time.Millisecond}
}

// Buffer is one supernode's sender-side segment queue.
//
// The queue is a head-indexed slice — queue[head:] is the live window —
// so dequeues reuse the array instead of sliding the slice off its backing
// storage, and steady-state enqueue/dequeue cycles stop allocating once the
// buffer has seen its peak depth. queuedBytes tracks the remaining
// (undropped) queued bytes incrementally at every enqueue, dequeue,
// eviction, and packet drop, so the queue-bound check is O(1) per evicted
// segment instead of the O(queue) rescan it used to cost — overload used to
// degrade Enqueue to O(queue²).
type Buffer struct {
	cfg       Config
	streamCfg stream.Config
	bandwidth float64 // current uplink λ_r in bits/second (nominal × scale)
	nominal   float64 // the unimpaired uplink bandwidth
	queue     []*stream.Segment
	head      int // queue[head:] is the live queue
	maxBytes  int // 0 = unbounded
	evicted   []*stream.Segment
	// prop holds the Eq. 13 estimators by value, indexed by Segment.Stream:
	// the sender numbers its streams 0..n-1, so finding one is an index.
	prop []propEstimator

	// queuedBytes mirrors the sum of RemainingBytes over the live queue.
	// Queued segments must only shed packets through the buffer's own drop
	// path for the counter to stay exact.
	queuedBytes int
	scratch     dropScratch

	// Counters for metrics.
	enqueued        int64
	sentSegments    int64
	droppedPackets  int64
	fullyDropped    int64
	tailDropped     int64
	deadlineActions int64
}

// NewBuffer returns a sender buffer draining at the given uplink bandwidth
// (bits per second).
func NewBuffer(cfg Config, streamCfg stream.Config, bandwidthBits int64) *Buffer {
	if bandwidthBits <= 0 {
		panic(fmt.Sprintf("sched: non-positive bandwidth %d", bandwidthBits))
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.PropWindow == 0 {
		cfg.PropWindow = 10
	}
	maxBytes := 0
	if cfg.MaxQueueDelay > 0 {
		maxBytes = int(float64(bandwidthBits) * cfg.MaxQueueDelay.Seconds() / 8)
	}
	return &Buffer{
		cfg:       cfg,
		streamCfg: streamCfg,
		bandwidth: float64(bandwidthBits),
		nominal:   float64(bandwidthBits),
		maxBytes:  maxBytes,
	}
}

// Reset reinitializes the buffer in place for a new run with new
// parameters, as if freshly built by NewBuffer, while keeping every piece
// of grown storage: the queue array, the eviction list, the drop scratch,
// and the estimators with their sample windows (rewound where they stand, so
// the next run's streams find them by the same indices). A pooled buffer
// therefore stops allocating once it has seen its peak queue depth and
// stream count. Behavior is identical to a fresh buffer: estimators are
// zeroed before reuse and all counters restart at zero.
func (b *Buffer) Reset(cfg Config, streamCfg stream.Config, bandwidthBits int64) {
	if bandwidthBits <= 0 {
		panic(fmt.Sprintf("sched: non-positive bandwidth %d", bandwidthBits))
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.PropWindow == 0 {
		cfg.PropWindow = 10
	}
	maxBytes := 0
	if cfg.MaxQueueDelay > 0 {
		maxBytes = int(float64(bandwidthBits) * cfg.MaxQueueDelay.Seconds() / 8)
	}
	for i := range b.prop {
		b.prop[i].reset()
	}
	for i := range b.queue {
		b.queue[i] = nil
	}
	b.queue = b.queue[:0]
	b.head = 0
	b.ClearEvicted()
	b.cfg = cfg
	b.streamCfg = streamCfg
	b.bandwidth = float64(bandwidthBits)
	b.nominal = float64(bandwidthBits)
	b.maxBytes = maxBytes
	b.queuedBytes = 0
	b.enqueued, b.sentSegments, b.droppedPackets = 0, 0, 0
	b.fullyDropped, b.tailDropped, b.deadlineActions = 0, 0, 0
}

// SetBandwidthScale rescales the uplink to scale × the nominal bandwidth
// (fault injection's bandwidth collapse). The scale is floored at 1% so
// transmission times stay finite. The queue byte bound intentionally stays
// at the nominal sizing: a collapsed link sheds load through deadline
// drops and longer transmissions, not a shrunken tail-drop bound.
func (b *Buffer) SetBandwidthScale(scale float64) {
	if scale < 0.01 {
		scale = 0.01
	}
	b.bandwidth = b.nominal * scale
}

// live returns the live queue window.
func (b *Buffer) live() []*stream.Segment { return b.queue[b.head:] }

// Len returns the number of segments queued.
func (b *Buffer) Len() int { return len(b.queue) - b.head }

// QueuedBytes returns the remaining (undropped) bytes queued. It reads the
// incrementally-maintained counter, so it is O(1).
func (b *Buffer) QueuedBytes() int { return b.queuedBytes }

// recomputeQueuedBytes walks the live queue and sums remaining bytes — the
// O(n) ground truth the counter must match; used by tests and assertions.
func (b *Buffer) recomputeQueuedBytes() int {
	total := 0
	for _, s := range b.live() {
		total += s.RemainingBytes(b.streamCfg.PacketSize)
	}
	return total
}

// TailDropped returns how many whole segments were shed by the queue bound
// (rejected arrivals plus evictions).
func (b *Buffer) TailDropped() int64 { return b.tailDropped }

// Evicted returns the segments shed by the queue bound since the last
// ClearEvicted, so callers can account their packets as
// lost. The returned slice is owned by the buffer; callers must finish with
// it before the next Enqueue and then call ClearEvicted.
func (b *Buffer) Evicted() []*stream.Segment { return b.evicted }

// ClearEvicted forgets the evicted segments while keeping the backing array
// for reuse.
func (b *Buffer) ClearEvicted() {
	for i := range b.evicted {
		b.evicted[i] = nil
	}
	b.evicted = b.evicted[:0]
}

// Stats reports scheduler counters: segments enqueued and sent, packets
// dropped by the deadline policy, segments whose packets were all dropped,
// and how many deadline-violation repairs ran.
func (b *Buffer) Stats() (enqueued, sent, droppedPackets, fullyDropped, repairs int64) {
	return b.enqueued, b.sentSegments, b.droppedPackets, b.fullyDropped, b.deadlineActions
}

// RecordPropagation feeds one measured packet propagation delay into the
// Eq. 13 estimator of the stream with the given index (Segment.Stream).
func (b *Buffer) RecordPropagation(stream int, d time.Duration) {
	if stream >= len(b.prop) {
		b.prop = append(b.prop, make([]propEstimator, stream+1-len(b.prop))...)
	}
	b.prop[stream].record(b.cfg.PropWindow, d)
}

// PropagationEstimate returns l_p for a stream: the mean of the last m
// recorded packet propagation delays (Eq. 13), or zero if none recorded.
func (b *Buffer) PropagationEstimate(stream int) time.Duration {
	if stream < len(b.prop) {
		return b.prop[stream].mean()
	}
	return 0
}

// Enqueue inserts a segment (EDF by expected arrival time, or FIFO when the
// ablation switch is off) and, if dropping is enabled, repairs any deadline
// violations the insertion reveals by dropping packets per Eq. 14.
//
// A full buffer sheds load: in FIFO mode the arriving segment is
// tail-dropped; in EDF mode the buffer evicts latest-deadline segments
// first (urgent video is worth more than lenient video that would miss its
// deadline anyway), which may or may not include the arriving segment.
// Enqueue reports whether the arriving segment was accepted; evicted
// segments (including a rejected arrival) are retrievable via
// Evicted so callers can account their packets as lost.
func (b *Buffer) Enqueue(now time.Duration, seg *stream.Segment) bool {
	seg.Enqueued = now
	b.enqueued++
	segBytes := seg.RemainingBytes(b.streamCfg.PacketSize)
	if b.maxBytes > 0 {
		for b.queuedBytes+segBytes > b.maxBytes {
			last := len(b.queue) - 1
			if !b.cfg.EDF || last < b.head ||
				b.queue[last].ExpectedArrival() <= seg.ExpectedArrival() {
				// The arrival is the most expendable segment.
				b.tailDropped++
				b.evicted = append(b.evicted, seg)
				return false
			}
			tail := b.queue[last]
			b.queue[last] = nil
			b.queue = b.queue[:last]
			b.queuedBytes -= tail.RemainingBytes(b.streamCfg.PacketSize)
			b.tailDropped++
			b.evicted = append(b.evicted, tail)
		}
	}
	// Make room for one more without growing past the peak live depth:
	// compact the window back to the array start when the tail is full.
	if len(b.queue) == cap(b.queue) && b.head > 0 {
		n := copy(b.queue, b.queue[b.head:])
		for i := n; i < len(b.queue); i++ {
			b.queue[i] = nil
		}
		b.queue = b.queue[:n]
		b.head = 0
	}
	q := b.live()
	at := len(q)
	if b.cfg.EDF {
		// Insert in ascending order of expected arrival time; ties keep
		// insertion order (stable with respect to earlier segments).
		at = sort.Search(len(q), func(i int) bool {
			return q[i].ExpectedArrival() > seg.ExpectedArrival()
		})
	}
	b.queue = append(b.queue, nil)
	q = b.live()
	copy(q[at+1:], q[at:])
	q[at] = seg
	b.queuedBytes += segBytes
	if b.cfg.DropEnabled {
		b.repairDeadlines(now, at)
	}
	return true
}

// DequeueAny removes and returns the head segment even when all of its
// packets were dropped, so callers can account the loss (a fully-dropped
// segment's packets still count against playback continuity); such a
// segment is counted as fully dropped, not sent. It returns nil when the
// buffer is empty.
func (b *Buffer) DequeueAny(now time.Duration) *stream.Segment {
	if b.head >= len(b.queue) {
		return nil
	}
	seg := b.queue[b.head]
	b.queue[b.head] = nil
	b.head++
	if b.head == len(b.queue) {
		b.queue = b.queue[:0]
		b.head = 0
	}
	b.queuedBytes -= seg.RemainingBytes(b.streamCfg.PacketSize)
	if seg.RemainingPackets() <= 0 {
		b.fullyDropped++
	} else {
		b.sentSegments++
	}
	return seg
}

// TransmissionTime returns l_t for a segment at the buffer's uplink rate:
// remaining bytes divided by λ_r.
func (b *Buffer) TransmissionTime(seg *stream.Segment) time.Duration {
	bytes := seg.RemainingBytes(b.streamCfg.PacketSize)
	return time.Duration(float64(bytes) * 8 / b.bandwidth * float64(time.Second))
}

// packetTime is σ: the average latency reduced by dropping one packet — one
// packet's transmission time at the uplink rate.
func (b *Buffer) packetTime() time.Duration {
	return time.Duration(float64(b.streamCfg.PacketSize) * 8 / b.bandwidth * float64(time.Second))
}

// EstimateResponseLatency implements Eq. 12 for the segment at queue
// position idx: the time already elapsed since the player's action (which
// covers the server receiving delay l_r and processing l_s), plus queueing
// delay l_q = np_i/λ_r for the bytes ahead of it, transmission l_t, and the
// estimated propagation l_p to its player.
func (b *Buffer) EstimateResponseLatency(now time.Duration, idx int) time.Duration {
	q := b.live()
	if idx < 0 || idx >= len(q) {
		panic(fmt.Sprintf("sched: index %d out of range [0,%d)", idx, len(q)))
	}
	seg := q[idx]
	elapsed := now - seg.ActionTime
	if elapsed < 0 {
		elapsed = 0
	}
	var precedingBytes int
	for _, p := range q[:idx] {
		precedingBytes += p.RemainingBytes(b.streamCfg.PacketSize)
	}
	lq := time.Duration(float64(precedingBytes) * 8 / b.bandwidth * float64(time.Second))
	lt := b.TransmissionTime(seg)
	lp := b.PropagationEstimate(seg.Stream)
	return elapsed + lq + lt + lp
}

// repairDeadlines scans the queue head-to-tail; for each segment whose
// estimated response latency exceeds its requirement it computes the packet
// deficit D_i = (L_r - L̃_r)/σ and distributes drops over the segment and
// its predecessors per Eq. 14, capped by each segment's loss-tolerance
// budget. Earlier repairs shrink preceding segments, so later estimates see
// the improvement. from is a live-queue index.
func (b *Buffer) repairDeadlines(now time.Duration, from int) {
	sigma := b.packetTime()
	if sigma <= 0 {
		return
	}
	// Only segments at or after the insertion point can have become late:
	// an EDF insert does not delay anything queued ahead of it. Single
	// pass with running prefix sums of preceding bytes and remaining drop
	// budget; dropAcross only runs when the prefix can actually shed
	// packets, which keeps steady-state overload (budgets exhausted) at
	// O(queue) per enqueue instead of O(queue²).
	q := b.live()
	precedingBytes := 0
	budgetAhead := 0
	for _, p := range q[:from] {
		precedingBytes += p.RemainingBytes(b.streamCfg.PacketSize)
		budgetAhead += p.DropBudget()
	}
	for i := from; i < len(q); i++ {
		seg := q[i]
		elapsed := now - seg.ActionTime
		if elapsed < 0 {
			elapsed = 0
		}
		lq := time.Duration(float64(precedingBytes) * 8 / b.bandwidth * float64(time.Second))
		lt := b.TransmissionTime(seg)
		lp := b.PropagationEstimate(seg.Stream)
		lr := elapsed + lq + lt + lp
		// Dropping queued packets only shrinks l_q and l_t; a segment whose
		// elapsed time plus propagation already exceeds its requirement is
		// late no matter what, and shedding other players' packets for it
		// would be pure loss.
		salvageable := elapsed+lp < seg.LatencyReq
		if lr > seg.LatencyReq && salvageable && budgetAhead+seg.DropBudget() > 0 {
			deficit := int(math.Ceil(float64(lr-seg.LatencyReq) / float64(sigma)))
			if deficit > 0 {
				b.deadlineActions++
				if b.cfg.Sink != nil {
					b.cfg.Sink(obs.Event{
						Kind:   obs.EventDropDecision,
						At:     now,
						Player: seg.PlayerID,
						A:      int64(deficit),
					})
				}
				b.dropAcross(now, i, deficit)
				// Recompute the prefix up to i after drops.
				precedingBytes, budgetAhead = 0, 0
				for _, p := range q[:i] {
					precedingBytes += p.RemainingBytes(b.streamCfg.PacketSize)
					budgetAhead += p.DropBudget()
				}
			}
		}
		precedingBytes += seg.RemainingBytes(b.streamCfg.PacketSize)
		budgetAhead += seg.DropBudget()
	}
}

// dropAcross drops up to deficit packets across the live queue[0..i]
// following Eq. 14: segment k's share is proportional to L̃_t_k × φ_k with
// φ_k = e^{-λ t_k} (t_k = time waited in queue), subject to each segment's
// loss-tolerance budget. Shares are integerized by largest remainder so the
// allocated total matches the deficit whenever budgets allow. The weight,
// budget and allocation slices live in the buffer's scratch space, so a
// repair costs no slice allocations beyond the sort.
func (b *Buffer) dropAcross(now time.Duration, i, deficit int) {
	segs := b.live()[:i+1]
	sc := &b.scratch
	sc.reset(len(segs))
	for k, s := range segs {
		if b.cfg.UniformDrop {
			sc.weights[k] = 1
		} else {
			waited := (now - s.Enqueued).Seconds()
			if waited < 0 {
				waited = 0
			}
			phi := math.Exp(-b.cfg.Lambda * waited)
			sc.weights[k] = s.LossTolerance * phi
		}
		sc.budgets[k] = s.DropBudget()
	}
	alloc := sc.allocate(deficit)
	ps := b.streamCfg.PacketSize
	for k, d := range alloc {
		if d > 0 {
			before := segs[k].RemainingBytes(ps)
			segs[k].Dropped += d
			b.queuedBytes -= before - segs[k].RemainingBytes(ps)
			b.droppedPackets += int64(d)
		}
	}
}

// dropScratch holds the reusable slices behind Eq. 14's allocation. One
// lives in each Buffer; AllocateDrops builds a throwaway one.
type dropScratch struct {
	weights []float64
	budgets []int
	alloc   []int
	active  []bool
	add     []int
	shares  []dropShare
}

type dropShare struct {
	k    int
	frac float64
}

// reset sizes every scratch slice to n and zeroes the ones allocate reads
// before writing.
func (s *dropScratch) reset(n int) {
	if cap(s.weights) < n {
		s.weights = make([]float64, n)
		s.budgets = make([]int, n)
		s.alloc = make([]int, n)
		s.active = make([]bool, n)
		s.add = make([]int, n)
	}
	s.weights = s.weights[:n]
	s.budgets = s.budgets[:n]
	s.alloc = s.alloc[:n]
	s.active = s.active[:n]
	s.add = s.add[:n]
	for i := range s.alloc {
		s.alloc[i] = 0
	}
}

// allocate runs the capped largest-remainder split of deficit over the
// scratch weights and budgets, returning the per-segment allocation (a view
// of the scratch allocation slice).
func (s *dropScratch) allocate(deficit int) []int {
	n := len(s.weights)
	remaining := deficit
	for k := 0; k < n; k++ {
		s.active[k] = s.budgets[k] > 0 && s.weights[k] > 0
	}
	// Iterate: proportional share, cap at budget, redistribute.
	for remaining > 0 {
		totalW := 0.0
		for k := 0; k < n; k++ {
			if s.active[k] {
				totalW += s.weights[k]
			}
		}
		if totalW <= 0 {
			break
		}
		whole := 0
		shares := s.shares[:0]
		for k := 0; k < n; k++ {
			s.add[k] = 0
			if !s.active[k] {
				continue
			}
			exact := float64(remaining) * s.weights[k] / totalW
			w := int(math.Floor(exact))
			room := s.budgets[k] - s.alloc[k]
			if w > room {
				w = room
			}
			s.add[k] = w
			whole += w
			if w < room {
				shares = append(shares, dropShare{k, exact - math.Floor(exact)})
			}
		}
		s.shares = shares
		// Largest-remainder distribution of the leftover units.
		leftover := remaining - whole
		sort.Slice(shares, func(a, b int) bool { return shares[a].frac > shares[b].frac })
		for _, sh := range shares {
			if leftover == 0 {
				break
			}
			if s.alloc[sh.k]+s.add[sh.k] < s.budgets[sh.k] {
				s.add[sh.k]++
				leftover--
			}
		}
		progressed := false
		for k := 0; k < n; k++ {
			if s.add[k] > 0 {
				s.alloc[k] += s.add[k]
				remaining -= s.add[k]
				progressed = true
			}
			if s.alloc[k] >= s.budgets[k] {
				s.active[k] = false
			}
		}
		if !progressed {
			break
		}
	}
	return s.alloc
}

// AllocateDrops splits a total of `deficit` packet drops across segments
// with the given Eq. 14 weights, capping each segment at its budget and
// redistributing capped remainder among the rest. Fractional shares are
// integerized by largest remainder. It returns the per-segment allocation;
// the sum may fall short of deficit when budgets are exhausted.
func AllocateDrops(weights []float64, budgets []int, deficit int) []int {
	n := len(weights)
	if len(budgets) != n {
		panic("sched: AllocateDrops weight/budget length mismatch")
	}
	var s dropScratch
	s.reset(n)
	copy(s.weights, weights)
	copy(s.budgets, budgets)
	out := make([]int, n)
	copy(out, s.allocate(deficit))
	return out
}

// propEstimator keeps the last m propagation samples (Eq. 13). The zero
// value has recorded nothing; its window is sized at its first sample.
type propEstimator struct {
	samples []time.Duration
	next    int
	full    bool
	sum     time.Duration
}

// reset rewinds an estimator for a new run and keeps its window's storage:
// stale samples are never read before being overwritten, because the mean only
// covers slots written since the reset.
func (p *propEstimator) reset() {
	p.next, p.full, p.sum = 0, false, 0
}

func (p *propEstimator) record(window int, d time.Duration) {
	if len(p.samples) != window {
		// The first sample, or the first since a Reset that changed m.
		if cap(p.samples) < window {
			p.samples = make([]time.Duration, window)
		}
		p.samples = p.samples[:window]
	}
	if p.full {
		p.sum -= p.samples[p.next]
	}
	p.samples[p.next] = d
	p.sum += d
	p.next++
	if p.next == window {
		p.next = 0
		p.full = true
	}
}

func (p *propEstimator) mean() time.Duration {
	n := p.next
	if p.full {
		n = len(p.samples)
	}
	if n == 0 {
		return 0
	}
	return p.sum / time.Duration(n)
}
