// Package metrics provides the small statistics toolkit the experiment
// harness aggregates results with: duration samples with percentiles,
// coverage counters and figure series tables.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// DurationSample collects durations for mean/percentile reporting.
type DurationSample struct {
	values []time.Duration
	sorted bool
}

// Add appends one duration.
func (d *DurationSample) Add(v time.Duration) {
	d.values = append(d.values, v)
	d.sorted = false
}

// N returns the sample size.
func (d *DurationSample) N() int { return len(d.values) }

// Mean returns the average duration (0 when empty).
func (d *DurationSample) Mean() time.Duration {
	if len(d.values) == 0 {
		return 0
	}
	var sum time.Duration
	for _, v := range d.values {
		sum += v
	}
	return sum / time.Duration(len(d.values))
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank,
// or 0 when empty.
func (d *DurationSample) Percentile(p float64) time.Duration {
	if len(d.values) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Slice(d.values, func(i, j int) bool { return d.values[i] < d.values[j] })
		d.sorted = true
	}
	if p <= 0 {
		return d.values[0]
	}
	if p >= 100 {
		return d.values[len(d.values)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(d.values)))) - 1
	if rank < 0 {
		rank = 0
	}
	return d.values[rank]
}

// Median returns the 50th percentile.
func (d *DurationSample) Median() time.Duration { return d.Percentile(50) }

// Coverage counts how many observations fall within a threshold.
type Coverage struct {
	within int64
	total  int64
}

// Observe records one latency against the threshold.
func (c *Coverage) Observe(latency, threshold time.Duration) {
	c.total++
	if latency <= threshold {
		c.within++
	}
}

// Fraction returns the covered fraction (0 when empty).
func (c *Coverage) Fraction() float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.within) / float64(c.total)
}

// Total returns the number of observations.
func (c *Coverage) Total() int64 { return c.total }

// Series is one plotted curve: a label plus (x, y) points, used by the
// experiment harness to print figures in the shape the paper plots them.
type Series struct {
	Label  string
	Points []Point
}

// Point is one (x, y) pair.
type Point struct {
	X float64
	Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Table formats a set of series sharing an x-axis into an aligned text
// table: one row per x value, one column per series. Series may have
// different x sets; missing cells print as "-". The x column is 12
// characters wide, or as wide as its label where that is longer. A series
// column is 14 characters wide, or one more than its label where the label
// needs it, so a label always has a space before it.
func Table(xLabel string, series []Series) string {
	xWidth := max(12, len(xLabel))
	widths := make([]int, len(series))
	out := fmt.Sprintf("%-*s", xWidth, xLabel)
	for i, s := range series {
		widths[i] = max(14, len(s.Label)+1)
		out += fmt.Sprintf("%*s", widths[i], s.Label)
	}
	out += "\n"
	for _, x := range axis(series) {
		out += fmt.Sprintf("%-*g", xWidth, x)
		for i, s := range series {
			cell := "-"
			if y, ok := s.at(x); ok {
				cell = fmt.Sprintf("%.4g", y)
			}
			out += fmt.Sprintf("%*s", widths[i], cell)
		}
		out += "\n"
	}
	return out
}

// CSV formats the same table as comma-separated values: a header of the x
// label and the series labels, then one row per x value, a missing cell
// empty.
func CSV(xLabel string, series []Series) string {
	var b strings.Builder
	b.WriteString(xLabel)
	for _, s := range series {
		b.WriteString("," + s.Label)
	}
	b.WriteString("\n")
	for _, x := range axis(series) {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range series {
			b.WriteString(",")
			if y, ok := s.at(x); ok {
				fmt.Fprintf(&b, "%.6g", y)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// axis returns every x any of the series plots, once each, ascending.
func axis(series []Series) []float64 {
	xs := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)
	return sorted
}

// at returns the y the series plots at x, and whether it plots x.
func (s Series) at(x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
