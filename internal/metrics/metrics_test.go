package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestDurationSamplePercentiles(t *testing.T) {
	var d DurationSample
	for i := 1; i <= 100; i++ {
		d.Add(time.Duration(i) * time.Millisecond)
	}
	if d.N() != 100 {
		t.Fatal("wrong N")
	}
	if d.Median() != 50*time.Millisecond {
		t.Fatalf("median = %v", d.Median())
	}
	if d.Percentile(90) != 90*time.Millisecond {
		t.Fatalf("p90 = %v", d.Percentile(90))
	}
	if d.Percentile(0) != time.Millisecond || d.Percentile(100) != 100*time.Millisecond {
		t.Fatal("extremes wrong")
	}
	if d.Mean() != 50500*time.Microsecond {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestDurationSampleEmpty(t *testing.T) {
	var d DurationSample
	if d.Mean() != 0 || d.Median() != 0 || d.Percentile(99) != 0 {
		t.Fatal("empty sample not zero")
	}
}

func TestDurationSampleAddAfterPercentile(t *testing.T) {
	var d DurationSample
	d.Add(10 * time.Millisecond)
	_ = d.Median()
	d.Add(20 * time.Millisecond)
	d.Add(2 * time.Millisecond)
	if d.Percentile(100) != 20*time.Millisecond || d.Percentile(0) != 2*time.Millisecond {
		t.Fatal("re-sorting after Add broken")
	}
}

func TestCoverage(t *testing.T) {
	var c Coverage
	if c.Fraction() != 0 {
		t.Fatal("empty coverage not 0")
	}
	c.Observe(50*time.Millisecond, 80*time.Millisecond)
	c.Observe(90*time.Millisecond, 80*time.Millisecond)
	c.Observe(80*time.Millisecond, 80*time.Millisecond) // inclusive
	if c.Fraction() != 2.0/3.0 {
		t.Fatalf("fraction = %v", c.Fraction())
	}
	if c.Total() != 3 {
		t.Fatalf("total = %d, want 3", c.Total())
	}
}

func TestSeriesTable(t *testing.T) {
	a := Series{Label: "Cloud"}
	a.Add(5, 0.31)
	a.Add(10, 0.42)
	b := Series{Label: "CloudFog"}
	b.Add(5, 0.65)
	out := Table("#dcs", []Series{a, b})
	for _, want := range []string{"#dcs", "Cloud", "CloudFog", "0.31", "0.42", "0.65"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Missing cell prints as "-".
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "-") {
		t.Fatalf("missing cell not dashed:\n%s", out)
	}

	// A label of 14 characters or more widens its own column: a space
	// before it, and its cells end where it ends.
	c := Series{Label: "CloudFog-schedule"}
	c.Add(5, 0.8)
	out = Table("players/SN", []Series{b, c})
	want := "players/SN        CloudFog CloudFog-schedule\n" +
		"5                     0.65               0.8\n"
	if out != want {
		t.Fatalf("long-label table:\n%s\nwant:\n%s", out, want)
	}

	// An x label longer than 12 characters widens the x column, in the
	// header and in every row, so the first column keeps its place.
	out = Table("heartbeat interval (s)", []Series{b})
	want = "heartbeat interval (s)      CloudFog\n" +
		"5                               0.65\n"
	if out != want {
		t.Fatalf("long-x-label table:\n%s\nwant:\n%s", out, want)
	}
}

// TestSeriesCSV: CSV shares Table's axis, each x once and ascending, and
// leaves a missing cell empty.
func TestSeriesCSV(t *testing.T) {
	a := Series{Label: "Cloud"}
	a.Add(10, 0.42)
	a.Add(5, 0.31)
	b := Series{Label: "CloudFog"}
	b.Add(5, 0.6543219)
	want := "#dcs,Cloud,CloudFog\n5,0.31,0.654322\n10,0.42,\n"
	if got := CSV("#dcs", []Series{a, b}); got != want {
		t.Fatalf("CSV:\n%s\nwant:\n%s", got, want)
	}
}
