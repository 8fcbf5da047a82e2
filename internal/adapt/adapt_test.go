package adapt

import (
	"math"
	"slices"
	"testing"
	"time"

	"cloudfog/internal/game"
)

func mustGame(t *testing.T, id int) game.Game {
	t.Helper()
	g, err := game.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestControllerStartsAtGameLevel(t *testing.T) {
	g := mustGame(t, 4)
	var c Controller
	c.Init(DefaultConfig(), g)
	if c.Level().Level != 4 {
		t.Fatalf("start level = %d, want 4", c.Level().Level)
	}
}

// TestAdjustDownPaperExample reproduces Figure 3's down path: a level-3
// (800 kbps) stream whose occupancy stays below θ drops to 500 kbps.
func TestAdjustDownPaperExample(t *testing.T) {
	g := mustGame(t, 3)
	cfg := DefaultConfig()
	cfg.UseRho = false // plain Formula 11, as in the figure
	var c Controller
	c.Init(cfg, g)
	var last Decision
	for i := 0; i < cfg.DownStreak; i++ {
		last = c.Observe(0.3) // r < θ = 0.5
	}
	if last != AdjustedDown {
		t.Fatalf("decision = %v, want down", last)
	}
	if c.Level().Bitrate != 500_000 {
		t.Fatalf("bitrate = %d, want 500kbps", c.Level().Bitrate)
	}
}

// TestAdjustUpPaperExample reproduces Figure 3's up path: after a down
// adjustment, sustained occupancy above 1+β brings the stream back up to
// its matched level (800 kbps -> 1200 kbps would exceed a level-3 game's
// latency requirement, so the example uses a level-4 game).
func TestAdjustUpPaperExample(t *testing.T) {
	g := mustGame(t, 4) // matched to 1200 kbps
	cfg := DefaultConfig()
	cfg.UseRho = false
	var c Controller
	c.Init(cfg, g)
	// First adapt down to 800 kbps.
	for i := 0; i < cfg.DownStreak; i++ {
		c.Observe(0.2)
	}
	if c.Level().Bitrate != 800_000 {
		t.Fatalf("setup: bitrate = %d, want 800kbps", c.Level().Bitrate)
	}
	// Now sustain r > 1+β = 5/3 for h1 estimations.
	var last Decision
	for i := 0; i < cfg.UpStreak; i++ {
		last = c.Observe(2.0)
	}
	if last != AdjustedUp {
		t.Fatalf("decision = %v, want up", last)
	}
	if c.Level().Bitrate != 1_200_000 {
		t.Fatalf("bitrate = %d, want 1200kbps", c.Level().Bitrate)
	}
}

func TestUpCappedAtGameLevel(t *testing.T) {
	g := mustGame(t, 2)
	cfg := DefaultConfig()
	cfg.UseRho = false
	var c Controller
	c.Init(cfg, g)
	for i := 0; i < cfg.UpStreak*3; i++ {
		c.Observe(10)
	}
	if c.Level().Level != 2 {
		t.Fatalf("level rose above game's matched level: %d", c.Level().Level)
	}
}

func TestDownCappedAtLevelOne(t *testing.T) {
	g := mustGame(t, 1)
	var c Controller
	c.Init(DefaultConfig(), g)
	for i := 0; i < 100; i++ {
		c.Observe(0)
	}
	if c.Level().Level != 1 {
		t.Fatalf("level fell below 1: %d", c.Level().Level)
	}
}

// TestHysteresisPreventsFluctuation checks that a single low sample does not
// trigger a change — all h consecutive results must satisfy the condition.
func TestHysteresisPreventsFluctuation(t *testing.T) {
	g := mustGame(t, 3)
	cfg := DefaultConfig()
	cfg.UseRho = false
	var c Controller
	c.Init(cfg, g)
	for i := 0; i < 200; i++ {
		// Alternate: condition never holds DownStreak times in a row.
		if i%5 == 4 {
			c.Observe(1.0) // neutral
		} else {
			c.Observe(0.1) // would-be down
		}
	}
	if c.Level().Level != 3 {
		t.Fatalf("level changed despite broken streak: %d", c.Level().Level)
	}
}

func TestStreakResetsAfterAdjustment(t *testing.T) {
	g := mustGame(t, 3)
	cfg := DefaultConfig()
	cfg.UseRho = false
	cfg.DownStreak = 3
	var c Controller
	c.Init(cfg, g)
	downs := 0
	for i := 0; i < 6; i++ {
		if c.Observe(0.1) == AdjustedDown {
			downs++
		}
	}
	// 6 observations with streak 3 => exactly 2 adjustments, not 4.
	if downs != 2 {
		t.Fatalf("adjustments = %d, want 2", downs)
	}
}

// TestRhoScalingMakesSensitiveGamesConservative verifies §III-B's extension:
// lower ρ (latency-sensitive game) means a higher up threshold, so a
// latency-sensitive game requires more buffered video before adjusting up.
func TestRhoScalingMakesSensitiveGamesConservative(t *testing.T) {
	cfg := DefaultConfig()
	var sensitive, tolerant Controller
	sensitive.Init(cfg, mustGame(t, 1)) // rho 0.6
	tolerant.Init(cfg, mustGame(t, 5))  // rho 1.0
	if sensitive.UpThreshold() <= tolerant.UpThreshold() {
		t.Fatalf("sensitive up threshold %v <= tolerant %v",
			sensitive.UpThreshold(), tolerant.UpThreshold())
	}
	if sensitive.DownThreshold() <= tolerant.DownThreshold() {
		t.Fatalf("sensitive down threshold %v <= tolerant %v",
			sensitive.DownThreshold(), tolerant.DownThreshold())
	}
}

func TestRhoDisabledMatchesPlainThresholds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseRho = false
	var c Controller
	c.Init(cfg, mustGame(t, 1))
	if math.Abs(c.UpThreshold()-(1+2.0/3.0)) > 1e-12 {
		t.Fatalf("up threshold = %v, want 1+beta", c.UpThreshold())
	}
	if c.DownThreshold() != 0.5 {
		t.Fatalf("down threshold = %v, want theta", c.DownThreshold())
	}
}

func TestDefaultsFilledIn(t *testing.T) {
	var c Controller
	c.Init(Config{}, mustGame(t, 3))
	if c.cfg.Theta != 0.5 || c.cfg.UpStreak != 100 || c.cfg.DownStreak != 10 {
		t.Fatalf("defaults not applied: %+v", c.cfg)
	}
	if math.Abs(c.cfg.Beta-2.0/3.0) > 1e-12 {
		t.Fatalf("beta default = %v, want 2/3", c.cfg.Beta)
	}
}

func TestAdjustmentCounters(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseRho = false
	cfg.DownStreak = 2
	cfg.UpStreak = 2
	var c Controller
	c.Init(cfg, mustGame(t, 4))
	var got []Decision
	for _, r := range []float64{0.1, 0.1, 3, 3} {
		got = append(got, c.Observe(r))
	}
	// Down to 3 on the second low sample, back up to 4 on the second high one.
	want := []Decision{Hold, AdjustedDown, Hold, AdjustedUp}
	if !slices.Equal(got, want) {
		t.Fatalf("decisions = %v, want %v", got, want)
	}
	if c.Level().Level != 4 {
		t.Fatalf("level = %d, want 4", c.Level().Level)
	}
}

func TestOccupancyEstimatorEq7(t *testing.T) {
	var e OccupancyEstimator
	e.Update(0, 0, 0) // initialize at t=0
	// 1 second at download 800kbps, playback 400kbps => +50,000 bytes.
	got := e.Update(time.Second, 800_000, 400_000)
	if math.Abs(got-50_000) > 1e-9 {
		t.Fatalf("estimate = %v, want 50000", got)
	}
	// Another 0.5s draining at -800kbps net => -50,000 bytes => clamp at 0.
	got = e.Update(1500*time.Millisecond, 0, 800_000)
	if got != 0 {
		t.Fatalf("estimate = %v, want clamp at 0", got)
	}
}

func TestOccupancyEstimatorSegments(t *testing.T) {
	var e OccupancyEstimator
	e.Update(0, 0, 0)
	e.Update(time.Second, 800_000, 0) // 100,000 bytes
	if r := e.Segments(10_000); math.Abs(r-10) > 1e-9 {
		t.Fatalf("r = %v, want 10", r)
	}
	if r := e.Segments(0); r != 0 {
		t.Fatalf("r with zero segment size = %v, want 0", r)
	}
}

func TestOccupancyEstimatorIgnoresBackwardsTime(t *testing.T) {
	var e OccupancyEstimator
	e.Update(time.Second, 800_000, 0)
	before := e.Bytes()
	e.Update(500*time.Millisecond, 800_000, 0)
	if e.Bytes() != before {
		t.Fatal("backwards update changed estimate")
	}
}

func TestDecisionString(t *testing.T) {
	if Hold.String() != "hold" || AdjustedUp.String() != "up" || AdjustedDown.String() != "down" {
		t.Fatal("decision names wrong")
	}
	if Decision(42).String() == "" {
		t.Fatal("unknown decision produced empty string")
	}
}
