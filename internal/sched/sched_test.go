package sched

import (
	"testing"
	"testing/quick"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/sim"
	"cloudfog/internal/stream"
)

// cfg100 is a 100 ms-segment stream config used so tests can pin round byte
// counts (level 3 => 10,000 bytes, level 5 => 22,500 bytes).
func cfg100() stream.Config {
	return stream.Config{SegmentDuration: 100 * time.Millisecond, PacketSize: 1500}
}

func testSegment(t *testing.T, playerID int64, gameID int, action time.Duration) *stream.Segment {
	t.Helper()
	g, err := game.ByID(gameID)
	if err != nil {
		t.Fatal(err)
	}
	s := new(stream.Segment)
	stream.NewEncoder(cfg100(), playerID, g.Quality()).EncodeInto(s, action, action, g)
	return s
}

func newTestBuffer(bandwidth int64) *Buffer {
	return NewBuffer(DefaultConfig(), cfg100(), bandwidth)
}

func TestEDFOrdering(t *testing.T) {
	b := newTestBuffer(100_000_000) // ample bandwidth: no drops interfere
	// Game 5 (110ms) queued first, then game 1 (30ms): the tight deadline
	// must jump the queue.
	slow := testSegment(t, 1, 5, 0)
	fast := testSegment(t, 2, 1, 0)
	b.Enqueue(0, slow)
	b.Enqueue(0, fast)
	if got := b.DequeueAny(0); got != fast {
		t.Fatalf("head = player %d, want the tight-deadline segment", got.PlayerID)
	}
	if got := b.DequeueAny(0); got != slow {
		t.Fatal("second dequeue should return the slow segment")
	}
	if b.DequeueAny(0) != nil {
		t.Fatal("empty buffer should return nil")
	}
}

func TestEDFUsesActionTimeToo(t *testing.T) {
	b := newTestBuffer(100_000_000)
	// Same game: earlier action => earlier expected arrival => first out.
	late := testSegment(t, 1, 3, 50*time.Millisecond)
	early := testSegment(t, 2, 3, 10*time.Millisecond)
	b.Enqueue(60*time.Millisecond, late)
	b.Enqueue(60*time.Millisecond, early)
	if got := b.DequeueAny(60 * time.Millisecond); got != early {
		t.Fatal("earlier action did not dequeue first")
	}
}

func TestFIFOAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EDF = false
	b := NewBuffer(cfg, cfg100(), 100_000_000)
	slow := testSegment(t, 1, 5, 0)
	fast := testSegment(t, 2, 1, 0)
	b.Enqueue(0, slow)
	b.Enqueue(0, fast)
	if got := b.DequeueAny(0); got != slow {
		t.Fatal("FIFO buffer reordered segments")
	}
}

func TestTransmissionTime(t *testing.T) {
	b := newTestBuffer(8_000_000)  // 1 MB/s
	seg := testSegment(t, 1, 3, 0) // 10,000 bytes at 800kbps, 100ms segments
	if got := b.TransmissionTime(seg); got != 10*time.Millisecond {
		t.Fatalf("l_t = %v, want 10ms", got)
	}
}

func TestEstimateResponseLatencyComponents(t *testing.T) {
	b := NewBuffer(Config{Lambda: 1, PropWindow: 10, EDF: true, DropEnabled: false},
		cfg100(), 8_000_000)
	first := testSegment(t, 1, 3, 0)
	second := testSegment(t, 2, 3, 0)
	second.Stream = 1 // the sender's second stream: what the sample is recorded under
	b.Enqueue(5*time.Millisecond, first)
	b.Enqueue(5*time.Millisecond, second)
	b.RecordPropagation(second.Stream, 7*time.Millisecond)

	// Second segment at 10ms: elapsed 10ms + queueing 10ms (first's 10,000B
	// at 1MB/s) + transmission 10ms + propagation 7ms = 37ms.
	got := b.EstimateResponseLatency(10*time.Millisecond, 1)
	if got != 37*time.Millisecond {
		t.Fatalf("L_r = %v, want 37ms", got)
	}
	// Head segment has no queueing delay and no propagation samples.
	if got := b.EstimateResponseLatency(10*time.Millisecond, 0); got != 20*time.Millisecond {
		t.Fatalf("head L_r = %v, want 20ms", got)
	}
}

func TestPropagationEstimatorWindow(t *testing.T) {
	b := newTestBuffer(8_000_000)
	if b.PropagationEstimate(9) != 0 {
		t.Fatal("estimate without samples should be 0")
	}
	// Window m = 10: fill with 10ms then push it out with 20ms samples.
	for i := 0; i < 10; i++ {
		b.RecordPropagation(9, 10*time.Millisecond)
	}
	if got := b.PropagationEstimate(9); got != 10*time.Millisecond {
		t.Fatalf("mean = %v, want 10ms", got)
	}
	for i := 0; i < 10; i++ {
		b.RecordPropagation(9, 20*time.Millisecond)
	}
	if got := b.PropagationEstimate(9); got != 20*time.Millisecond {
		t.Fatalf("mean after window rollover = %v, want 20ms", got)
	}
}

func TestPropagationPartialWindow(t *testing.T) {
	b := newTestBuffer(8_000_000)
	b.RecordPropagation(1, 10*time.Millisecond)
	b.RecordPropagation(1, 30*time.Millisecond)
	if got := b.PropagationEstimate(1); got != 20*time.Millisecond {
		t.Fatalf("partial-window mean = %v, want 20ms", got)
	}
}

// TestEstimatorsByStream: estimators are found by stream index. One past
// anything recorded estimates zero, a lower one that never recorded still
// estimates zero after a higher one has, and streams do not read each other's
// samples.
func TestEstimatorsByStream(t *testing.T) {
	b := newTestBuffer(8_000_000)
	b.RecordPropagation(5, 12*time.Millisecond)
	for _, idle := range []int{0, 4, 6, 1000} {
		if got := b.PropagationEstimate(idle); got != 0 {
			t.Fatalf("stream %d never recorded and estimates %v", idle, got)
		}
	}
	b.RecordPropagation(2, 30*time.Millisecond)
	if got := b.PropagationEstimate(5); got != 12*time.Millisecond {
		t.Fatalf("stream 5 = %v after stream 2 recorded, want 12ms", got)
	}
	if got := b.PropagationEstimate(2); got != 30*time.Millisecond {
		t.Fatalf("stream 2 = %v, want 30ms", got)
	}
}

// TestResetRedealsEstimators: after Reset every stream estimates zero again
// and means cover only what was recorded since — including under a changed
// window m — and a reset buffer that has seen its peak stream count records
// without allocating.
func TestResetRedealsEstimators(t *testing.T) {
	cfg := DefaultConfig()
	b := NewBuffer(cfg, cfg100(), 8_000_000)
	const streams = 8
	fill := func(d time.Duration) {
		for s := 0; s < streams; s++ {
			for i := 0; i < cfg.PropWindow+3; i++ {
				b.RecordPropagation(s, d)
			}
		}
	}
	fill(40 * time.Millisecond)
	b.Reset(cfg, cfg100(), 8_000_000)
	for s := 0; s < streams; s++ {
		if got := b.PropagationEstimate(s); got != 0 {
			t.Fatalf("stream %d estimates %v after Reset", s, got)
		}
	}
	b.RecordPropagation(3, 10*time.Millisecond)
	if got := b.PropagationEstimate(3); got != 10*time.Millisecond {
		t.Fatalf("one sample after Reset: mean %v, want 10ms (stale samples read)", got)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		b.Reset(cfg, cfg100(), 8_000_000)
		fill(25 * time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Reset and re-record on a warm buffer allocates %.0f", allocs)
	}
	small := cfg
	small.PropWindow = 4
	b.Reset(small, cfg100(), 8_000_000)
	for i, d := range []time.Duration{10, 20, 30, 40, 50} {
		b.RecordPropagation(0, d*time.Millisecond)
		want := []time.Duration{10, 15, 20, 25, 35}[i] * time.Millisecond
		if got := b.PropagationEstimate(0); got != want {
			t.Fatalf("m=4, sample %d: mean %v, want %v", i, got, want)
		}
	}
}

// TestDropAllocationPaperExample exercises Eq. 14 on Figure 4's scenario:
// 6 packets must be dropped across segments with loss tolerances
// (0.6, 0.2, 0.5). With decay factors (0.5, 1.0, 0.2) the weights are
// (0.30, 0.20, 0.10) and the allocation is d = (3, 2, 1), the figure's
// result. (The figure's printed φ₂ = 0.1 is inconsistent with its own
// output — 0.6·0.5 : 0.2·0.1 : 0.5·0.2 normalizes to (4.3, 0.3, 1.4), not
// (3, 2, 1) — so we use the φ values that make the worked example hold.)
func TestDropAllocationPaperExample(t *testing.T) {
	weights := []float64{0.6 * 0.5, 0.2 * 1.0, 0.5 * 0.2}
	budgets := []int{100, 100, 100}
	got := AllocateDrops(weights, budgets, 6)
	want := []int{3, 2, 1}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("allocation = %v, want %v", got, want)
		}
	}
}

func TestAllocateDropsRespectsBudgets(t *testing.T) {
	weights := []float64{1, 1, 1}
	budgets := []int{1, 0, 10}
	got := AllocateDrops(weights, budgets, 9)
	if got[0] != 1 || got[1] != 0 || got[2] != 8 {
		t.Fatalf("allocation = %v, want [1 0 8]", got)
	}
}

func TestAllocateDropsShortBudget(t *testing.T) {
	got := AllocateDrops([]float64{1, 2}, []int{2, 2}, 100)
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("allocation = %v, want budget-capped [2 2]", got)
	}
}

func TestAllocateDropsZeroWeights(t *testing.T) {
	got := AllocateDrops([]float64{0, 0}, []int{5, 5}, 4)
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("allocation with zero weights = %v, want zeros", got)
	}
}

func TestAllocateDropsProperties(t *testing.T) {
	f := func(w1, w2, w3 uint8, b1, b2, b3 uint8, deficit uint8) bool {
		weights := []float64{float64(w1), float64(w2), float64(w3)}
		budgets := []int{int(b1 % 30), int(b2 % 30), int(b3 % 30)}
		d := int(deficit % 60)
		alloc := AllocateDrops(weights, budgets, d)
		total := 0
		for k := range alloc {
			if alloc[k] < 0 || alloc[k] > budgets[k] {
				return false
			}
			if weights[k] == 0 && alloc[k] != 0 {
				return false
			}
			total += alloc[k]
		}
		if total > d {
			return false
		}
		// If every weight is positive and budgets suffice, the full deficit
		// must be allocated.
		budgetSum := 0
		allPositive := true
		for k := range budgets {
			if weights[k] > 0 {
				budgetSum += budgets[k]
			} else {
				allPositive = false
			}
		}
		if allPositive && budgetSum >= d && total != d {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineRepairDropsPackets builds a congested buffer: a slow uplink
// with several queued segments forces the estimated latency of a new
// tight-deadline segment past its requirement, which must trigger drops.
func TestDeadlineRepairDropsPackets(t *testing.T) {
	// 2 Mbps uplink: a 10,000-byte segment takes 40ms to transmit. The
	// queue bound is lifted so congestion builds into deadline pressure.
	cfg := DefaultConfig()
	cfg.MaxQueueDelay = 0
	b := NewBuffer(cfg, cfg100(), 2_000_000)
	for i := 0; i < 4; i++ {
		b.Enqueue(0, testSegment(t, int64(i), 5, 0)) // 110ms budget, 40% loss tolerance
	}
	// Game 1 (30ms budget): even alone it needs ~11ms transmission; behind
	// four 22,500B segments (level 5) it is hopeless without drops.
	tight := testSegment(t, 99, 1, 0)
	b.Enqueue(0, tight)
	_, _, dropped, _, repairs := b.Stats()
	if repairs == 0 {
		t.Fatal("no deadline repair ran")
	}
	if dropped == 0 {
		t.Fatal("no packets dropped despite hopeless deadline")
	}
}

func TestDropDisabledAblation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropEnabled = false
	cfg.MaxQueueDelay = 0
	b := NewBuffer(cfg, cfg100(), 2_000_000)
	for i := 0; i < 4; i++ {
		b.Enqueue(0, testSegment(t, int64(i), 5, 0))
	}
	b.Enqueue(0, testSegment(t, 99, 1, 0))
	_, _, dropped, _, repairs := b.Stats()
	if dropped != 0 || repairs != 0 {
		t.Fatalf("drops ran with DropEnabled=false: dropped=%d repairs=%d", dropped, repairs)
	}
}

func TestDropsNeverExceedLossTolerance(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxQueueDelay = 0
	b := NewBuffer(cfg, cfg100(), 500_000) // very slow uplink: heavy congestion
	segs := make([]*stream.Segment, 0, 12)
	for i := 0; i < 12; i++ {
		gameID := i%5 + 1
		s := testSegment(t, int64(i), gameID, time.Duration(i)*5*time.Millisecond)
		segs = append(segs, s)
		b.Enqueue(time.Duration(i)*5*time.Millisecond, s)
	}
	for _, s := range segs {
		max := int(s.LossTolerance * float64(s.Packets))
		if s.Dropped > max {
			t.Fatalf("segment for player %d dropped %d packets, tolerance allows %d",
				s.PlayerID, s.Dropped, max)
		}
	}
}

// TestFullyDroppedSegmentsSkippedOnDequeue: a segment whose packets were all
// dropped still leaves the queue in order, so its loss can be accounted, but
// it is counted as fully dropped and skipped by the sent count.
func TestFullyDroppedSegmentsSkippedOnDequeue(t *testing.T) {
	b := newTestBuffer(8_000_000)
	s1 := testSegment(t, 1, 3, 0)
	s2 := testSegment(t, 2, 3, 0)
	b.Enqueue(0, s1)
	b.Enqueue(0, s2)
	s1.Dropped = s1.Packets // everything gone
	if got := b.DequeueAny(0); got != s1 || got.RemainingPackets() != 0 {
		t.Fatal("the fully dropped head segment did not leave the queue first")
	}
	if got := b.DequeueAny(0); got != s2 {
		t.Fatal("the surviving segment did not follow")
	}
	_, sent, _, fullyDropped, _ := b.Stats()
	if sent != 1 || fullyDropped != 1 {
		t.Fatalf("stats = sent %d, fullyDropped %d; want 1, 1", sent, fullyDropped)
	}
}

func TestQueuedBytesTracksDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropEnabled = false // drive the drop path by hand
	b := NewBuffer(cfg, cfg100(), 8_000_000)
	s := testSegment(t, 1, 5, 0) // 40% loss tolerance: budget covers 2 drops
	b.Enqueue(0, s)
	before := b.QueuedBytes()
	b.dropAcross(0, 0, 2)
	if s.Dropped != 2 {
		t.Fatalf("dropAcross dropped %d packets, want 2", s.Dropped)
	}
	after := b.QueuedBytes()
	if after != before-2*1500 {
		t.Fatalf("queued bytes = %d, want %d", after, before-2*1500)
	}
	if after != b.recomputeQueuedBytes() {
		t.Fatalf("counter %d != recomputed %d", after, b.recomputeQueuedBytes())
	}
}

// TestQueuedBytesCounterConsistency hammers the buffer with a randomized
// enqueue/dequeue/drop/evict mix and asserts the incremental queuedBytes
// counter always equals the O(n) recomputed sum — the invariant that lets
// Enqueue's bound check run in O(1) per evicted segment.
func TestQueuedBytesCounterConsistency(t *testing.T) {
	games := make([]game.Game, 0, 5)
	for id := 1; id <= 5; id++ {
		g, err := game.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		games = append(games, g)
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := sim.NewRand(seed)
		cfg := DefaultConfig()
		cfg.MaxQueueDelay = 40 * time.Millisecond // 40 KB bound: evictions fire
		b := NewBuffer(cfg, cfg100(), 8_000_000)
		now := time.Duration(0)
		sawBacklog := false
		for op := 0; op < 3000; op++ {
			now += time.Duration(rng.Intn(3)) * time.Millisecond
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4: // enqueue (triggers EDF insert, repair drops, evictions)
				g := games[rng.Intn(len(games))]
				e := stream.NewEncoder(cfg100(), int64(rng.Intn(40)), g.Quality())
				action := now - time.Duration(rng.Intn(10))*time.Millisecond
				seg := new(stream.Segment)
				e.EncodeInto(seg, action, now, g)
				b.Enqueue(now, seg)
				b.ClearEvicted()
			case 5, 6, 7: // dequeue
				b.DequeueAny(now)
			case 8: // deliberate mid-queue packet drops through the drop path
				if n := b.Len(); n > 0 {
					b.dropAcross(now, rng.Intn(n), 1+rng.Intn(4))
				}
			case 9: // drain a burst so head-index wraparound is exercised
				for k := 0; k < 3; k++ {
					b.DequeueAny(now)
				}
			}
			if got, want := b.QueuedBytes(), b.recomputeQueuedBytes(); got != want {
				t.Fatalf("seed %d op %d: counter %d != recomputed %d", seed, op, got, want)
			}
			if b.Len() > 1 {
				sawBacklog = true
			}
		}
		if !sawBacklog {
			t.Fatalf("seed %d: workload never built a backlog", seed)
		}
		if b.TailDropped() == 0 {
			t.Fatalf("seed %d: workload never triggered an eviction", seed)
		}
	}
}

// TestEnqueueAllocFloor pins the steady-state allocation cost of the
// Enqueue/Dequeue cycle: once the queue array, scratch space, and evicted
// backing array are warm, a cycle allocates nothing beyond the segment the
// caller encodes.
func TestEnqueueAllocFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxQueueDelay = 20 * time.Millisecond
	b := NewBuffer(cfg, cfg100(), 2_000_000)
	g, err := game.ByID(3)
	if err != nil {
		t.Fatal(err)
	}
	e := stream.NewEncoder(cfg100(), 1, g.Quality())
	seg := new(stream.Segment)
	now := time.Duration(0)
	// Warm: populate the queue, scratch, and evicted arrays.
	for i := 0; i < 64; i++ {
		now += time.Millisecond
		e.EncodeInto(seg, now-5*time.Millisecond, now, g)
		b.Enqueue(now, seg)
		b.ClearEvicted()
		if i%2 == 0 {
			b.DequeueAny(now)
		}
	}
	if avg := testing.AllocsPerRun(200, func() {
		now += time.Millisecond
		e.EncodeInto(seg, now-5*time.Millisecond, now, g)
		b.Enqueue(now, seg)
		b.ClearEvicted()
		b.DequeueAny(now)
	}); avg != 0 {
		t.Fatalf("warm Enqueue/Dequeue cycle allocates %.1f/op, want 0", avg)
	}
}

func TestNewBufferPanicsOnBadBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth accepted")
		}
	}()
	NewBuffer(DefaultConfig(), cfg100(), 0)
}

func TestEstimatePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index accepted")
		}
	}()
	newTestBuffer(1_000_000).EstimateResponseLatency(0, 0)
}

// TestPhiProtectsOlderSegments verifies the decay property of Eq. 14: with
// equal loss tolerances, a segment that has waited longer in the queue
// (smaller φ = e^{-λt}) absorbs fewer drops than a fresh one.
func TestPhiProtectsOlderSegments(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DropEnabled = false // drive the allocation by hand
	cfg.MaxQueueDelay = 0   // keep both segments queued
	b := NewBuffer(cfg, cfg100(), 8_000_000)
	old := testSegment(t, 1, 5, 0)
	fresh := testSegment(t, 2, 5, 950*time.Millisecond)
	b.Enqueue(0, old)
	b.Enqueue(950*time.Millisecond, fresh)

	// At t = 1s: old has waited 1s (φ = e^-1), fresh 50ms (φ ≈ 0.95).
	// Budgets (40% of 15 packets = 6) do not bind for a 4-packet deficit.
	b.dropAcross(time.Second, 1, 4)
	if old.Dropped+fresh.Dropped != 4 {
		t.Fatalf("total drops = %d, want 4", old.Dropped+fresh.Dropped)
	}
	if old.Dropped >= fresh.Dropped {
		t.Fatalf("aged segment dropped %d >= fresh segment's %d; φ decay not protecting it",
			old.Dropped, fresh.Dropped)
	}
}

func TestTailDropBoundsQueue(t *testing.T) {
	// 2 Mbps with an explicit 100ms bound => at most 25,000 queued bytes.
	cfg := DefaultConfig()
	cfg.DropEnabled = false
	cfg.MaxQueueDelay = 100 * time.Millisecond
	b := NewBuffer(cfg, cfg100(), 2_000_000)
	accepted := 0
	for i := 0; i < 10; i++ {
		if b.Enqueue(0, testSegment(t, int64(i), 3, 0)) { // 10,000 bytes each
			accepted++
		}
	}
	if accepted != 2 {
		t.Fatalf("accepted %d segments, want 2 within the 25KB bound", accepted)
	}
	if b.QueuedBytes() > 25_000 {
		t.Fatalf("queued %d bytes, bound is 25000", b.QueuedBytes())
	}
	if b.TailDropped() != 8 {
		t.Fatalf("tail-dropped %d, want 8", b.TailDropped())
	}
	// Draining frees space for new segments.
	b.DequeueAny(0)
	if !b.Enqueue(0, testSegment(t, 99, 3, 0)) {
		t.Fatal("segment rejected despite freed space")
	}
}

func TestUnboundedQueueNeverTailDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxQueueDelay = 0
	cfg.DropEnabled = false
	b := NewBuffer(cfg, cfg100(), 500_000)
	for i := 0; i < 200; i++ {
		if !b.Enqueue(0, testSegment(t, int64(i), 5, 0)) {
			t.Fatal("unbounded queue rejected a segment")
		}
	}
	if b.TailDropped() != 0 {
		t.Fatal("unbounded queue counted tail drops")
	}
}
