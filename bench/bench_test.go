package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// The highest percentile a sample count supports leaves ten beyond it.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 50, false}, {20, 50, true}, {39, 75, false}, {40, 75, true},
		{199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true},
		{9999, 99.9, false}, {10000, 99.9, true},
	} {
		if got := supports(tc.n, tc.p); got != tc.want {
			t.Errorf("supports(%d, p%v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and was not refused")
	}
	if got, err := percentile(xs, 90); err != nil || got != 180 {
		t.Errorf("p90 of 1..199 = %v, %v; want 180", got, err)
	}
}

func TestTailRefusesFewSamples(t *testing.T) {
	xs := make([]float64, tailMinSamples)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tail(xs[:tailMinSamples-1]); err == nil {
		t.Errorf("a tail of %d samples was not refused", tailMinSamples-1)
	}
	got, err := tail(xs)
	if err != nil || got != 0.95*tailMinSamples {
		t.Errorf("tail = %v, %v; want the %vth value", got, err, 0.95*tailMinSamples)
	}
	if !supports(tailMinSamples, tailPercentile) {
		t.Errorf("%d samples do not support the reported tail p%d", tailMinSamples, tailPercentile)
	}
}

// Values checked against Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{35.76, 35.45, 35.1, 34.9, 35.32, 34.86, 35.45, 35.0, 35.2, 35.6}, 34.975, 35.26, 35.4875},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{5, 1, 3}, 1, 3, 5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for _, p := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(p[0]-p[1]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-9 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// fakeClock stands in for time.Now and time.Sleep.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time        { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t = c.t.Add(d) }

func TestOpenLoopTimesFromDueTimeAndKeepsItsGrid(t *testing.T) {
	const period = 10 * time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	loop := newOpenLoop(start, period, 200*time.Millisecond)
	loop.now, loop.sleep = clk.now, clk.sleep

	var issued []time.Time
	for {
		i, due, late, ok := loop.wait()
		if !ok {
			break
		}
		if want := start.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Fatalf("operation %d due %v, want %v: the grid moved", i, due.Sub(start), want.Sub(start))
		}
		if i != len(issued) {
			t.Fatalf("operation %d handed out after %d others", i, len(issued))
		}
		if got := clk.t.Sub(due); got != late || late < 0 {
			t.Fatalf("operation %d: lateness %v reported, %v true", i, late, got)
		}
		issued = append(issued, clk.t)
		clk.sleep(time.Millisecond) // the operation itself
		if i == 4 {
			clk.sleep(45 * time.Millisecond) // a stall
		}
	}
	if len(issued) != 20 {
		t.Fatalf("%d operations issued over 200 ms at one per 10 ms", len(issued))
	}
	for i, at := range issued {
		late := at.Sub(start.Add(time.Duration(i) * period))
		switch {
		case i <= 4 || i >= 9:
			// On time before the stall, and again once the backlog is
			// gone: nothing after the stall is pushed back or drawn in.
			if late != 0 {
				t.Errorf("operation %d issued %v late", i, late)
			}
		case late <= 0:
			// Operations 5–8 came due during the stall: issued at once,
			// and the stall is in their latency because it is timed from
			// the due time.
			t.Errorf("operation %d was due during the stall and shows no lateness", i)
		}
	}
}

func TestSpanSelfTimeIsDurationMinusChildCover(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{epoch: at(0)}
	root := tr.add("op", -1, 1, at(0), at(100))
	a := tr.add("a", root, 1, at(10), at(40))
	tr.add("b", root, 1, at(30), at(60))  // overlaps a: 30..40 counts once
	tr.add("c", root, 1, at(90), at(120)) // runs past the parent: clipped
	tr.add("a1", a, 1, at(10), at(15))
	lone := tr.add("op", -1, 2, at(200), at(300))

	self := selfTimes(tr.snapshot())
	for id, want := range map[int]time.Duration{
		root: 40 * time.Millisecond, // 100 − (10..60 and 90..100)
		a:    25 * time.Millisecond,
		lone: 100 * time.Millisecond,
	} {
		if got := time.Duration(self[id]); got != want {
			t.Errorf("span %d self time %v, want %v", id, got, want)
		}
	}
	if got := coverage(tr.snapshot()); math.Abs(got-0.3) > 1e-9 {
		t.Errorf("coverage %v, want 60 ms of 200 ms", got)
	}
	var none *tracer
	if id := none.add("x", -1, 0, at(0), at(1)); id != -1 || none.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}

func TestContractNamesAreTheOnesTheProgramPrints(t *testing.T) {
	c, err := loadContract()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, specs []metricSpec, units map[string]string, bounded bool) {
		seen := make(map[string]bool)
		for _, s := range specs {
			unit, ok := units[s.Name]
			switch {
			case !name.MatchString(s.Name) || seen[s.Name]:
				t.Errorf("%s metric name %q is malformed or repeated", kind, s.Name)
			case !ok:
				t.Errorf("%s metric %s is not one the program prints", kind, s.Name)
			case unit != s.Unit:
				t.Errorf("%s metric %s has unit %q, the program prints %q", kind, s.Name, s.Unit, unit)
			case s.Better != "lower" && s.Better != "higher":
				t.Errorf("%s metric %s is better %q", kind, s.Name, s.Better)
			case bounded && (s.Bound <= 0 || s.Bound > 0.25):
				t.Errorf("%s metric %s has bound %v, want one in (0, 0.25]", kind, s.Name, s.Bound)
			case bounded && s.Bound < issueBounds[s.Name][0]:
				t.Errorf("%s metric %s has bound %v, tighter than the %v bench compare holds it to", kind, s.Name, s.Bound, issueBounds[s.Name][0])
			case !bounded && s.Bound != 0:
				t.Errorf("%s metric %s carries a bound", kind, s.Name)
			}
			seen[s.Name] = true
		}
		for n := range units {
			if !seen[n] {
				t.Errorf("the program prints %s metric %s, BENCHMARK.json does not list it", kind, n)
			}
		}
	}
	check("end-to-end", c.EndToEnd, endToEndUnits, true)
	check("per-layer", c.PerLayer, perLayerUnits, false)

	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(c.Workloads), len(workloads))
	}
	for _, w := range c.Workloads {
		if _, err := workloadByName(w.Name); err != nil || !name.MatchString(w.Name) {
			t.Errorf("workload %q: malformed or not one the program runs", w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: reason of %d characters", w.Name, len(w.Why))
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
}

func TestPeakRSSWatchSeesATransient(t *testing.T) {
	stop := watchPeakRSS()
	before := residentMB()
	if before == 0 {
		t.Skip("/proc/self/statm does not give the resident set here")
	}
	block := make([]byte, 64<<20)
	for i := 0; i < len(block); i += 4096 {
		block[i] = 1
	}
	time.Sleep(3 * rssEvery)
	sink += int(block[len(block)-4096])
	if peak := stop(); peak < before+60 {
		t.Errorf("peak %v MiB after touching 64 MiB on top of %v", peak, before)
	}
}

func TestResolveReportsWideSpreadsAsUnresolved(t *testing.T) {
	for _, tc := range []struct {
		worse, sa, sb float64
		want          string
	}{
		{0.02, 0.01, 0.03, "yes"},
		{-0.30, 0.01, 0.03, "yes"},
		{0.06, 0.01, 0.03, "NO"},
		{0.06, 0.01, 0.08, "unresolved"},
		{0.00, 0.09, 0.01, "unresolved"},
	} {
		if got := resolve(tc.worse, tc.sa, tc.sb, 0.05); got != tc.want {
			t.Errorf("resolve(%v, %v, %v, 0.05) = %q, want %q", tc.worse, tc.sa, tc.sb, got, tc.want)
		}
	}
}
