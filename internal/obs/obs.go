// Package obs is the repo's observability layer: named counters,
// fixed-bucket histograms, and a structured event sink, shared by the
// deterministic simulator and the live TCP runtime.
//
// Design constraints, in priority order:
//
//   - Determinism: instruments never influence control flow. Counter and
//     histogram updates are commutative, so totals are identical no matter
//     how the parallel figure-sweep workers interleave, and a run's figure
//     output is bit-identical with observation on or off.
//   - Near-zero disabled overhead: every instrumented layer holds a nilable
//     pointer to its stat bundle (EngineStats, NodeStats, AssignStats,
//     LinkStats), and the QoE node layer a nilable EventSink func value
//     (NodeStats.Sink, the one sink). Disabled, the hot path
//     pays one pointer nil-check per site — no interface dispatch, no
//     allocation — preserving the repo's pinned zero-alloc floors.
//   - Allocation-conscious enabled overhead: counters are single atomic
//     adds; histograms are a branchless-ish linear bucket scan over a fixed
//     bounds slice plus two atomic adds; events are small structs passed by
//     value to a func, never boxed.
//
// Metric naming follows the Prometheus convention: snake_case with a
// cloudfog_ prefix, _total for counters, unit suffixes (_ns) on histograms.
// Registry.WritePrometheus emits the text exposition format (served by
// cloudfog-live's -metrics-addr); Registry.Snapshot emits the JSON form
// (written by cloudfog-sim's -report).
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored — counters are monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper edges in ascending order; one implicit overflow bucket catches
// everything above the last bound. The zero value is not usable; build one
// through Registry.Histogram or NewHistogram.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64
	n      atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %d <= %d",
				i, bounds[i], bounds[i-1]))
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bounds returns the bucket upper edges (shared; do not mutate).
func (h *Histogram) Bounds() []int64 { return h.bounds }

// BucketCounts returns a copy of the per-bucket counts; the last element is
// the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// LatencyBucketsNs is the default latency histogram: 1ms..5s upper edges in
// nanoseconds, roughly logarithmic — wide enough for wide-area paths and
// queue-congested segments alike.
func LatencyBucketsNs() []int64 {
	return []int64{
		1e6, 2e6, 5e6, 10e6, 20e6, 50e6, 100e6, 200e6, 500e6, 1e9, 2e9, 5e9,
	}
}

// Registry holds named metrics. Get-or-create accessors make registration
// idempotent, so independent layers (and parallel sweep workers) can bind
// the same canonical names and share the underlying instrument.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*registeredCounter
	hists  map[string]*registeredHistogram
}

type registeredCounter struct {
	help string
	c    *Counter
}

type registeredHistogram struct {
	help string
	h    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*registeredCounter),
		hists:  make(map[string]*registeredHistogram),
	}
}

// Counter returns the counter registered under name, creating it with the
// given help text on first use. Name may carry a Prometheus label block,
// e.g. `cloudfog_link_sent_bytes_total{link="cloud_to_sn7"}`.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rc, ok := r.counts[name]; ok {
		return rc.c
	}
	rc := &registeredCounter{help: help, c: new(Counter)}
	r.counts[name] = rc
	return rc.c
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use. Re-registration with different bounds
// returns the original instrument (bounds are fixed at first registration).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rh, ok := r.hists[name]; ok {
		return rh.h
	}
	rh := &registeredHistogram{help: help, h: NewHistogram(bounds)}
	r.hists[name] = rh
	return rh.h
}

// familyOf strips a label block from a metric name: the exposition format
// declares HELP/TYPE once per family.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus emits every registered metric in the Prometheus text
// exposition format, sorted by name so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	cnames := make([]string, 0, len(r.counts))
	for n := range r.counts {
		cnames = append(cnames, n)
	}
	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	r.mu.Unlock()
	sort.Strings(cnames)
	sort.Strings(hnames)

	seen := make(map[string]bool)
	for _, n := range cnames {
		r.mu.Lock()
		rc := r.counts[n]
		r.mu.Unlock()
		fam := familyOf(n)
		if !seen[fam] {
			seen[fam] = true
			if rc.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, rc.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", fam); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, rc.c.Load()); err != nil {
			return err
		}
	}
	for _, n := range hnames {
		r.mu.Lock()
		rh := r.hists[n]
		r.mu.Unlock()
		fam := familyOf(n)
		if !seen[fam] {
			seen[fam] = true
			if rh.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, rh.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
				return err
			}
		}
		base, labels := splitLabels(n)
		cum := int64(0)
		counts := rh.h.BucketCounts()
		for i, bound := range rh.h.Bounds() {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", base, labels, bound, cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", base, labels, cum); err != nil {
			return err
		}
		suffix := ""
		if labels != "" {
			suffix = "{" + strings.TrimSuffix(labels, ",") + "}"
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", base, suffix, rh.h.Sum()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, suffix, rh.h.Count()); err != nil {
			return err
		}
	}
	return nil
}

// splitLabels splits `name{a="b"}` into ("name", `a="b",`); a bare name
// yields ("name", "").
func splitLabels(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	inner := strings.TrimSuffix(name[i+1:], "}")
	if inner == "" {
		return name[:i], ""
	}
	return name[:i], inner + ","
}

// HistogramSnapshot is the JSON form of one histogram.
type HistogramSnapshot struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(bounds)+1; last is overflow
	Sum    int64   `json:"sum"`
	Count  int64   `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, shaped for JSON.
// Map iteration order does not matter: encoding/json sorts keys.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every registered metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Counters: make(map[string]int64, len(r.counts))}
	for n, rc := range r.counts {
		s.Counters[n] = rc.c.Load()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for n, rh := range r.hists {
			s.Histograms[n] = HistogramSnapshot{
				Bounds: rh.h.Bounds(),
				Counts: rh.h.BucketCounts(),
				Sum:    rh.h.Sum(),
				Count:  rh.h.Count(),
			}
		}
	}
	return s
}
