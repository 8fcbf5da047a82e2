package experiment

import (
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/sim"
)

// TestDetectionPropertyAcrossSeeds is the detector property test: on a
// loss-free profile, across 32 seeds and both heartbeat modes, the monitor
// must produce zero false positives, detect every injected crash before the
// horizon, and keep every detection latency inside DetectorConfig.Bound().
func TestDetectionPropertyAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("32-seed property sweep")
	}
	for seed := int64(1); seed <= 32; seed++ {
		mode := health.ModeTimeout
		if seed%2 == 0 {
			mode = health.ModePhi
		}
		cfg := Default(seed)
		cfg.Players = 500
		cfg.Supernodes = 25
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.New()
		dc := health.DetectorConfig{Interval: time.Second}
		fog, mon, err := w.newHealthFog(engine, HealthOptions{Detector: mode, DetectorConfig: dc}, nil)
		if err != nil {
			t.Fatal(err)
		}
		players := w.JoinAll(fog, w.Cfg.Players)

		sched, err := fault.Compile(detectProfile(seed+700, time.Second), w.FaultTargets())
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.StartInjector(sched, engine, fog, w.Respawner(),
			sim.NewRand(seed+701), nil, mon)
		engine.RunUntil(detectDuration)
		inj.Finish()

		if inj.Killed() == 0 {
			t.Fatalf("seed %d (%s): profile injected no kills", seed, mode)
		}
		if fp := inj.FalsePositives(); fp != 0 {
			t.Errorf("seed %d (%s): %d false positives on a loss-free profile", seed, mode, fp)
		}
		if pend := inj.DetectPending(); pend != 0 {
			t.Errorf("seed %d (%s): %d of %d kills undetected at the horizon",
				seed, mode, pend, inj.Killed())
		}
		bound := dc.Bound()
		if worst := mon.MaxDetectionLatency(); worst > bound {
			t.Errorf("seed %d (%s): worst detection latency %v exceeds Bound() %v",
				seed, mode, worst, bound)
		}
		w.LeaveAll(fog, players)
	}
}

// TestDetectionLatencyFigure checks figdetect's two acceptance properties:
// serial and parallel sweeps are bit-identical, and the phi-accrual mean
// detection latency sits strictly below the plain timeout's at every
// heartbeat interval.
func TestDetectionLatencyFigure(t *testing.T) {
	ws, wp := sweepTestWorlds(t)
	intervals := []time.Duration{2 * time.Second, 5 * time.Second}

	serial, serialTitle, err := DetectionLatency(ws, intervals)
	if err != nil {
		t.Fatal(err)
	}
	parallel, parallelTitle, err := DetectionLatency(wp, intervals)
	if err != nil {
		t.Fatal(err)
	}
	if serialTitle != parallelTitle {
		t.Fatalf("titles differ:\nserial:   %s\nparallel: %s", serialTitle, parallelTitle)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("serial and parallel figdetect outputs differ\nserial:   %+v\nparallel: %+v", serial, parallel)
	}

	if len(serial) != 3 {
		t.Fatalf("want 3 series (oracle, timeout, phi), got %d", len(serial))
	}
	timeout, phi := serial[1], serial[2]
	if timeout.Label != "timeout" || phi.Label != "phi" {
		t.Fatalf("unexpected series order: %q, %q", timeout.Label, phi.Label)
	}
	for i := range intervals {
		to, ph := timeout.Points[i].Y, phi.Points[i].Y
		if ph <= 0 || to <= 0 {
			t.Fatalf("interval %v: zero mean detection latency (timeout %v, phi %v)", intervals[i], to, ph)
		}
		if ph >= to {
			t.Fatalf("interval %v: phi mean %vs is not strictly below timeout mean %vs", intervals[i], ph, to)
		}
	}
}

// TestDetectionLatencyGolden pins figdetect's bytes — title, with its
// detection ledger, and every series point — at a small world and two
// heartbeat intervals, all three modes. Nearly every event the figure queues
// is a heartbeat or a sweep tick, so it is the golden over the event engine's
// busiest traffic: a firing order that moves one heartbeat moves a latency.
func TestDetectionLatencyGolden(t *testing.T) {
	const want = "d6854a906bdad1da612bf8344634aa2ec409b9473238b392e8b93bb5d97bad48"
	cfg := Default(2026)
	cfg.Players = 800
	cfg.Supernodes = 50
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series, title, err := DetectionLatency(w, []time.Duration{time.Second, 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if got := figureDigest(title, series); got != want {
		t.Fatalf("figdetect digest %s, want %s (%q)", got, want, title)
	}
}

// TestOverloadKeepsFlashCrowdStreaming floods a small fog far past its slot
// capacity with the degradation ladder installed: everyone keeps streaming
// (supernode or cloud), loaded supernodes degrade instead of flapping, and
// RelieveOverloaded drains every Migrating node.
func TestOverloadKeepsFlashCrowdStreaming(t *testing.T) {
	cfg := Default(55)
	cfg.Players = 1500
	cfg.Supernodes = 40
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.New()
	fog, _, err := w.newHealthFog(engine, HealthOptions{Overload: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	players := w.JoinAll(fog, w.Cfg.Players)

	for _, p := range players {
		if !p.Attached.Served() {
			t.Fatalf("player %d left unserved during the flash crowd", p.ID)
		}
	}
	ol := fog.Overload()
	degraded := 0
	for _, sn := range fog.Supernodes() {
		if sn.Load() > sn.Capacity {
			t.Fatalf("supernode %d over capacity: %d/%d", sn.ID, sn.Load(), sn.Capacity)
		}
		if ol.State(sn.ID) >= health.StateDegraded {
			degraded++
			if lc := fog.SupernodeLevelCap(sn.ID, 5); lc >= 5 {
				t.Fatalf("degraded supernode %d has level cap %d, want < startLevel", sn.ID, lc)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no supernode entered the degradation ladder under a 1500-player flood of 40 nodes")
	}

	fog.RelieveOverloaded()
	for _, sn := range fog.Supernodes() {
		if ol.ShouldMigrate(sn.ID) && sn.Load() > 0 {
			t.Fatalf("supernode %d still Migrating with %d players after RelieveOverloaded", sn.ID, sn.Load())
		}
	}
	for _, p := range players {
		if !p.Attached.Served() {
			t.Fatalf("player %d lost service during overload migration", p.ID)
		}
	}
	w.LeaveAll(fog, players)
}
