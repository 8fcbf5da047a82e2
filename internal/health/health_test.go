package health

import (
	"testing"
	"time"

	"cloudfog/internal/sim"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeOracle, true},
		{"oracle", ModeOracle, true},
		{"timeout", ModeTimeout, true},
		{"phi", ModePhi, true},
		{"bogus", ModeOracle, false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

// beat feeds n regular heartbeats at the given interval and returns the last
// arrival time.
func beat(d *Detector, n int, interval time.Duration) time.Duration {
	var now time.Duration
	for i := 0; i < n; i++ {
		now = time.Duration(i) * interval
		d.Heartbeat(now)
	}
	return now
}

// firstSuspectAfter scans forward from last in small steps and returns the
// silence at which the detector first suspects.
func firstSuspectAfter(d *Detector, last time.Duration) time.Duration {
	const step = 10 * time.Millisecond
	for s := step; s <= 20*time.Second; s += step {
		if d.Suspect(last + s) {
			return s
		}
	}
	return -1
}

// TestDetectorTimeoutThreshold: the timeout detector fires once the silence
// reaches TimeoutFactor heartbeat intervals, and not a moment before.
func TestDetectorTimeoutThreshold(t *testing.T) {
	d := NewDetector(DetectorConfig{Mode: ModeTimeout, Interval: time.Second})
	last := beat(d, 10, time.Second)
	if d.Suspect(last + 3400*time.Millisecond) {
		t.Fatal("timeout detector suspected before 3.5 intervals of silence")
	}
	if !d.Suspect(last + 3500*time.Millisecond) {
		t.Fatal("timeout detector did not suspect at 3.5 intervals of silence")
	}
}

// TestDetectorPhiBeatsTimeout: with the same heartbeat history, phi-accrual
// must suspect strictly earlier than the plain timeout, while still tolerating
// the 2-interval silence a single lost heartbeat causes (the zero-false-
// positive property under the chaos profiles' loss accumulator).
func TestDetectorPhiBeatsTimeout(t *testing.T) {
	phi := NewDetector(DetectorConfig{Mode: ModePhi, Interval: time.Second})
	to := NewDetector(DetectorConfig{Mode: ModeTimeout, Interval: time.Second})
	lastPhi := beat(phi, 10, time.Second)
	lastTo := beat(to, 10, time.Second)

	if phi.Suspect(lastPhi + 2*time.Second) {
		t.Fatal("phi detector suspected a single lost heartbeat (2-interval silence)")
	}
	phiAt := firstSuspectAfter(phi, lastPhi)
	toAt := firstSuspectAfter(to, lastTo)
	if phiAt <= 0 || toAt <= 0 {
		t.Fatalf("a detector never fired: phi=%v timeout=%v", phiAt, toAt)
	}
	if phiAt >= toAt {
		t.Fatalf("phi detection latency %v is not strictly below timeout's %v", phiAt, toAt)
	}
}

// TestDetectorMaxSilenceCap: even when lossy history has inflated the
// adaptive estimate far past the send interval, the hard MaxSilence cap
// fires — this is what makes DetectorConfig.Bound provable.
func TestDetectorMaxSilenceCap(t *testing.T) {
	cfg := DetectorConfig{Mode: ModePhi, Interval: time.Second}.Defaulted()
	d := NewDetector(cfg)
	// Every gap observed was 5 s (heavy loss): the phi estimate alone would
	// tolerate silences far beyond 6 s.
	last := beat(d, 10, 5*time.Second)
	if got := firstSuspectAfter(d, last); got <= 0 || got > cfg.MaxSilence {
		t.Fatalf("suspicion at silence %v, want within the MaxSilence cap %v", got, cfg.MaxSilence)
	}
	if cfg.Bound() != cfg.MaxSilence+cfg.CheckEvery {
		t.Fatalf("Bound() = %v, want MaxSilence+CheckEvery = %v", cfg.Bound(), cfg.MaxSilence+cfg.CheckEvery)
	}
}

// TestSuspectMatchesPhi holds Suspect's early "no" — a silence that has not
// outlasted the mean gap cannot reach a threshold above log₁₀2 — to the long
// way round: the MaxSilence cap, or Phi compared with the threshold. A few
// thousand seeded histories (regular, jittered, lossy, re-based by a Reset
// part-way), each asked after every arrival at silences either side of the
// mean gap. Thresholds 0.1 and 0.302 are ones the bound does not clear and
// must take the arithmetic: under 0.1 a silence short of the mean gap is
// already suspect, which is what fails a shortcut taken without looking at the
// threshold.
func TestSuspectMatchesPhi(t *testing.T) {
	long := func(d *Detector, now time.Duration) bool {
		return d.seen && (now-d.last >= d.cfg.MaxSilence || d.Phi(now) >= d.cfg.PhiThreshold)
	}
	rng := sim.NewRand(20261005)
	thresholds := []float64{0.1, 0.302, 0.31, 1, 0} // 0 is the default, 6
	fracs := []float64{0, 0.05, 0.5, 0.9, 0.999, 1, 1.001, 1.1, 1.5, 2, 2.7, 3.5, 6, 7}
	asked, suspectInsideGap := 0, 0
	for trial := 0; trial < 4000; trial++ {
		interval := time.Duration(1+rng.Intn(2000)) * time.Millisecond
		d := NewDetector(DetectorConfig{
			Mode: ModePhi, Interval: interval, Window: 1 + rng.Intn(20),
			PhiThreshold: thresholds[trial%len(thresholds)],
		})
		if d.Suspect(time.Hour) {
			t.Fatalf("trial %d: suspected a node that never spoke", trial)
		}
		kind, now := trial/len(thresholds)%4, time.Duration(0)
		for beatNo, beats := 0, 1+rng.Intn(40); beatNo < beats; beatNo++ {
			gap := interval
			switch kind {
			case 1: // jittered
				gap = time.Duration(float64(interval) * (0.5 + rng.Float64()))
			case 2: // lossy: whole intervals go missing
				gap = interval * time.Duration(1+rng.Intn(4))
			case 3: // a recovered node re-registers part-way through its phase
				if rng.Intn(8) == 0 {
					now += time.Duration(rng.Float64() * float64(interval))
					d.Reset(now)
				}
			}
			now += gap
			d.Heartbeat(now)
			mean := d.mean()
			for _, f := range fracs {
				at := d.last + time.Duration(f*mean*float64(time.Second))
				got, want := d.Suspect(at), long(d, at)
				if got != want {
					t.Fatalf("trial %d (kind %d, threshold %v) beat %d: Suspect at %.3f mean gaps of silence = %v, the long way says %v (phi %v)",
						trial, kind, d.cfg.PhiThreshold, beatNo, f, got, want, d.Phi(at))
				}
				asked++
				if want && (at-d.last).Seconds() <= mean {
					suspectInsideGap++
				}
			}
		}
	}
	if suspectInsideGap == 0 {
		t.Fatalf("none of %d evaluations was suspect inside the mean gap: the low thresholds never reached the case the guard is for", asked)
	}
}

// TestOverloadLadderHysteresis walks one node up and down the ladder and
// checks every gate plus the no-flapping property around a threshold.
func TestOverloadLadderHysteresis(t *testing.T) {
	o, err := NewOverload(OverloadConfig{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const id, cap = 1, 100

	if s := o.Observe(id, 69, cap); s != StateNormal {
		t.Fatalf("occupancy 0.69 -> %v, want normal", s)
	}
	if s := o.Observe(id, 70, cap); s != StateDegraded {
		t.Fatalf("occupancy 0.70 -> %v, want degraded", s)
	}
	// Oscillating just below the entry threshold must NOT drop the state:
	// exit needs occupancy under enterAt - Hysteresis = 0.55.
	for i := 0; i < 10; i++ {
		o.Observe(id, 69, cap)
		o.Observe(id, 70, cap)
	}
	if s := o.State(id); s != StateDegraded {
		t.Fatalf("state flapped to %v while oscillating around the threshold", s)
	}
	if s := o.Observe(id, 56, cap); s != StateDegraded {
		t.Fatalf("occupancy 0.56 -> %v, want still degraded (hysteresis)", s)
	}
	if s := o.Observe(id, 54, cap); s != StateNormal {
		t.Fatalf("occupancy 0.54 -> %v, want normal again", s)
	}

	// The gates, rung by rung.
	o.Observe(id, 85, cap)
	if o.AllowBackup(id) {
		t.Fatal("shedding node still advertised as a backup")
	}
	if !o.Admit(id) {
		t.Fatal("shedding node refused a join (that is Rejecting's job)")
	}
	o.Observe(id, 95, cap)
	if o.Admit(id) {
		t.Fatal("rejecting node admitted a join")
	}
	if o.ShouldMigrate(id) {
		t.Fatal("rejecting node asked for migration (that is Migrating's job)")
	}
	o.Observe(id, 100, cap)
	if !o.ShouldMigrate(id) {
		t.Fatal("fully loaded node did not ask for migration")
	}
	if got := o.LevelCap(id, 5); got != 5-int(StateMigrating) {
		t.Fatalf("LevelCap at migrating = %d, want startLevel-4", got)
	}
	if got := o.LevelCap(id, 2); got != 1 {
		t.Fatalf("LevelCap floors at 1, got %d", got)
	}

	o.Forget(id)
	if s := o.State(id); s != StateNormal {
		t.Fatalf("forgotten node reports %v, want normal", s)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewOverload(OverloadConfig{DegradeAt: 0.9, ShedAt: 0.8, RejectAt: 0.95, MigrateAt: 1, Hysteresis: 0.1}, nil, nil); err == nil {
		t.Fatal("unordered overload thresholds validated")
	}
}
