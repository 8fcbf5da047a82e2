package health

import (
	"testing"
	"time"

	"cloudfog/internal/sim"
)

// TestMonitorSweepZeroAlloc pins the steady-state cost of a running
// monitor: once the fleet is tracked and the engine warm, heartbeat events
// and evaluation sweeps allocate nothing — the detectors live in the node
// arena, heartbeats ride pre-bound payload callbacks through recycled
// engine slots, and the sorted sweep order is only rebuilt on registration.
func TestMonitorSweepZeroAlloc(t *testing.T) {
	engine := sim.New()
	mon := NewMonitor(engine, DetectorConfig{Mode: ModePhi}, nil, nil)
	for id := int64(0); id < 100; id++ {
		mon.Track(5000 + id)
	}
	mon.Start()
	engine.RunUntil(30 * time.Second)
	allocs := testing.AllocsPerRun(10, func() {
		engine.RunUntil(engine.Now() + 5*time.Second)
	})
	if allocs > 0 {
		t.Fatalf("warm monitor run allocates %.0f per 5s window, want 0", allocs)
	}
	if fp := mon.FalsePositives(); fp != 0 {
		t.Fatalf("%d false positives on clean heartbeats", fp)
	}
}

// TestMonitorTrackChurn bounds registration cost: the chunked arena spends
// ~2 allocations per 64 tracked nodes (slab + shared gap window) instead of
// the former 3+ per node (node, detector, ring buffer, sorted-insert).
func TestMonitorTrackChurn(t *testing.T) {
	engine := sim.New()
	mon := NewMonitor(engine, DetectorConfig{Mode: ModePhi}, nil, nil)
	next := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		for i := 0; i < 128; i++ {
			mon.Track(next)
			next++
		}
	})
	// 128 tracks: 2 slabs + amortized map/slice growth. Bound with slack
	// for map rehashes landing inside one run.
	if allocs > 64 {
		t.Fatalf("tracking 128 nodes allocates %.0f, want <= 64", allocs)
	}
}

// TestMonitorSweepOrderAfterBulkTrack verifies the lazily-sorted sweep
// behaves exactly like the former sorted-insert: out-of-order registration
// still detects in ascending node-ID order within one tick.
func TestMonitorSweepOrderAfterBulkTrack(t *testing.T) {
	engine := sim.New()
	// A sweep cadence far coarser than the heartbeat phase spread, so all
	// five nodes cross the silence threshold between two sweeps and one
	// evaluation detects them all in a single tick.
	cfg := DetectorConfig{Mode: ModeTimeout, CheckEvery: 5 * time.Second}
	mon := NewMonitor(engine, cfg, nil, nil)
	var order []int64
	mon.OnDetect(func(id int64, now time.Duration) { order = append(order, id) })
	for _, id := range []int64{42, 7, 99, 3, 61} {
		mon.Track(id)
	}
	mon.Start()
	engine.RunUntil(10 * time.Second) // warm heartbeat history
	for _, id := range []int64{42, 7, 99, 3, 61} {
		mon.Kill(id)
	}
	engine.RunUntil(25 * time.Second)
	if len(order) != 5 {
		t.Fatalf("detected %d of 5 killed nodes: %v", len(order), order)
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("detections out of ID order: %v", order)
		}
	}
}

// TestMonitorDetectsKillWhileSuspected kills a node the detector already
// wrongly suspects: every heartbeat is lost for the first 20 s, so the live
// node is suspected once (a false positive), and the kill at 10 s must still
// be detected as a death of its own rather than hide behind that suspicion.
func TestMonitorDetectsKillWhileSuspected(t *testing.T) {
	engine := sim.New()
	loss := func(now time.Duration) float64 {
		if now < 20*time.Second {
			return 1
		}
		return 0
	}
	mon := NewMonitor(engine, DetectorConfig{Mode: ModeTimeout}, loss, nil)
	var detections []time.Duration
	mon.OnDetect(func(id int64, now time.Duration) { detections = append(detections, now) })
	mon.Track(1)
	mon.Start()
	engine.ScheduleAt(10*time.Second, func() { mon.Kill(1) })
	engine.RunUntil(60 * time.Second)
	if fp := mon.FalsePositives(); fp != 1 {
		t.Fatalf("%d false positives, want 1 (the lossy first 20 s)", fp)
	}
	if len(detections) != 1 || mon.Detected() != 1 {
		t.Fatalf("kill at 10s detected at %v (Detected %d), want one detection", detections, mon.Detected())
	}
}
