package experiment

import (
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/fault"
)

// testChaosProfile is a compressed chaos scenario: two minutes with crash,
// loss, and latency faults, sized so a full replay runs in well under a
// second of wall time.
func testChaosProfile(seed int64) *fault.Profile {
	return &fault.Profile{
		Name:     "test-chaos",
		Seed:     seed,
		Duration: fault.Dur(2 * time.Minute),
		Specs: []fault.Spec{
			{Kind: fault.KindCrash, MTTF: fault.Dur(40 * time.Second), MTTR: fault.Dur(20 * time.Second),
				Detect: fault.Dur(5 * time.Second), TargetFrac: 0.5},
			{Kind: fault.KindLoss, MeanGood: fault.Dur(30 * time.Second), MeanBad: fault.Dur(5 * time.Second),
				LossFrac: 0.2},
			{Kind: fault.KindLatency, MeanGood: fault.Dur(30 * time.Second), MeanBad: fault.Dur(5 * time.Second),
				Extra: fault.Dur(30 * time.Millisecond)},
		},
	}
}

func TestQoEVsChurnShape(t *testing.T) {
	w := testWorld(t)
	rates := []float64{0, 6}
	series, err := QoEVsChurn(w, rates, 3*time.Minute, HealthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("want 3 series, got %d", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(rates) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(rates))
		}
		for _, p := range s.Points {
			if p.Y < 0 || p.Y > 1 {
				t.Fatalf("series %q point %+v outside [0,1]", s.Label, p)
			}
		}
	}
	unserved := series[2]
	if got := at(unserved, 0); got != 0 {
		t.Fatalf("fault-free baseline has unserved fraction %v, want 0", got)
	}
	// With a 15s detection delay and a kill every 10s, some samples must
	// catch players between a kill and its repair.
	if got := at(unserved, 6); got <= 0 {
		t.Fatalf("churning at 6 kills/min never caught an unserved player (got %v)", got)
	}
}

func TestRecoveryTimelineShape(t *testing.T) {
	w := testWorld(t)
	profile := testChaosProfile(w.Cfg.Seed + 600)
	series, title, err := RecoveryTimeline(w, profile, 2*time.Second, HealthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("want 2 series, got %d", len(series))
	}
	if title == "" {
		t.Fatal("timeline title is empty")
	}
	served := series[0]
	if len(served.Points) == 0 {
		t.Fatal("served series is empty")
	}
	dipped := false
	for _, p := range served.Points {
		if p.Y < 0 || p.Y > 1 {
			t.Fatalf("served fraction %+v outside [0,1]", p)
		}
		if p.Y < 1 {
			dipped = true
		}
	}
	if !dipped {
		t.Fatal("served fraction never dipped below 1 under a crash profile with 5s detection")
	}
	// The run must leave the world restored for the next figure.
	for _, p := range w.Pop.Players {
		if p.Online || p.Attached.Served() {
			t.Fatalf("player %d still joined after RecoveryTimeline", p.ID)
		}
	}
}

// TestResilienceSerialMatchesParallel is the fault-subsystem determinism
// acceptance test: for a fixed seed and fault profile, the resilience
// figures' output and the compiled injected-event log must be bit-identical
// whether the sweep points run serially or on the worker pool.
func TestResilienceSerialMatchesParallel(t *testing.T) {
	ws, wp := sweepTestWorlds(t)
	profile := testChaosProfile(ws.Cfg.Seed + 600)

	// The injected-event log is the compiled schedule; both worlds must
	// derive the identical log from the same profile.
	ss, err := fault.Compile(profile, ws.FaultTargets())
	if err != nil {
		t.Fatal(err)
	}
	sp, err := fault.Compile(profile, wp.FaultTargets())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ss.Events, sp.Events) {
		t.Fatal("serial and parallel worlds compiled different injected-event logs")
	}

	t.Run("QoEVsChurn", func(t *testing.T) {
		got, err := QoEVsChurn(ws, []float64{0, 2, 6}, 2*time.Minute, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := QoEVsChurn(wp, []float64{0, 2, 6}, 2*time.Minute, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("serial and parallel outputs differ\nserial:   %+v\nparallel: %+v", got, want)
		}
	})
	t.Run("RecoveryTimeline", func(t *testing.T) {
		got, gotTitle, err := RecoveryTimeline(ws, profile, 2*time.Second, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, wantTitle, err := RecoveryTimeline(wp, profile, 2*time.Second, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if gotTitle != wantTitle {
			t.Fatalf("titles differ:\nserial:   %s\nparallel: %s", gotTitle, wantTitle)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("serial and parallel outputs differ\nserial:   %+v\nparallel: %+v", got, want)
		}
	})
	t.Run("RepeatRunsBitIdentical", func(t *testing.T) {
		a, aTitle, err := RecoveryTimeline(ws, profile, 2*time.Second, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b, bTitle, err := RecoveryTimeline(ws, profile, 2*time.Second, HealthOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if aTitle != bTitle || !reflect.DeepEqual(a, b) {
			t.Fatal("same world, seed, and profile produced different timelines across runs")
		}
	})
}

// TestRespawnerFindsEverySpec: the respawn function mints each supernode from
// its own spec, whatever order BuildSupernodes issued the IDs in, a fresh
// instance per call, and nothing for an ID no spec holds.
func TestRespawnerFindsEverySpec(t *testing.T) {
	w := testWorld(t)
	respawn := w.Respawner()
	sorted := true
	for i, sp := range w.snSpec {
		sn := respawn(sp.id)
		if sn == nil || sn.ID != sp.id || sn.Pos != sp.pos || sn.Capacity != sp.capacity || sn.Uplink != sp.uplink {
			t.Fatalf("respawn(%d) = %+v, want spec %+v", sp.id, sn, sp)
		}
		if respawn(sp.id) == sn {
			t.Fatalf("respawn(%d) handed out the same instance twice", sp.id)
		}
		if i > 0 && sp.id < w.snSpec[i-1].id {
			sorted = false
		}
	}
	if sorted {
		t.Fatal("the world's supernode IDs are in ID order; the index is not exercised")
	}
	lo, hi := w.snSpec[0].id, w.snSpec[0].id
	for _, sp := range w.snSpec {
		lo, hi = min(lo, sp.id), max(hi, sp.id)
	}
	for _, id := range []int64{lo - 1, hi + 1, int64(w.Pop.Players[0].ID)} {
		if sn := respawn(id); sn != nil {
			t.Fatalf("respawn(%d) = supernode %d, want nil for an ID no spec holds", id, sn.ID)
		}
	}
}
