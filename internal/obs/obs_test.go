package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	want := []int64{2, 2, 0, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: {}; +Inf: {5000}
	got := h.BucketCounts()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 5 || h.Sum() != 5+10+11+100+5000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	h1 := r.Histogram("h_ns", "", []int64{1, 2})
	h2 := r.Histogram("h_ns", "", []int64{5})
	if h1 != h2 {
		t.Fatal("re-registration returned a different histogram")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("cloudfog_a_total", "counts a").Add(3)
	r.Counter(`cloudfog_link_sent_bytes_total{link="cloud_to_sn7"}`, "link bytes").Add(99)
	h := r.Histogram("cloudfog_lat_ns", "latency", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE cloudfog_a_total counter",
		"cloudfog_a_total 3",
		"# TYPE cloudfog_link_sent_bytes_total counter",
		`cloudfog_link_sent_bytes_total{link="cloud_to_sn7"} 99`,
		"# TYPE cloudfog_lat_ns histogram",
		`cloudfog_lat_ns_bucket{le="10"} 1`,
		`cloudfog_lat_ns_bucket{le="100"} 2`,
		`cloudfog_lat_ns_bucket{le="+Inf"} 3`,
		"cloudfog_lat_ns_sum 555",
		"cloudfog_lat_ns_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Deterministic: a second write is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("exposition not deterministic across writes")
	}
}

func TestHistogramExpositionWithLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`cloudfog_link_send_delay_ns{link="p1"}`, "", []int64{100})
	h.Observe(50)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`cloudfog_link_send_delay_ns_bucket{link="p1",le="100"} 1`,
		`cloudfog_link_send_delay_ns_sum{link="p1"} 50`,
		`cloudfog_link_send_delay_ns_count{link="p1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("gen_total", "").Add(7)
	r.Histogram("lat_ns", "", []int64{10}).Observe(3)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["gen_total"] != 7 {
		t.Fatalf("snapshot counter = %d, want 7", snap.Counters["gen_total"])
	}
	hs := snap.Histograms["lat_ns"]
	if hs.Count != 1 || hs.Sum != 3 || len(hs.Counts) != 2 {
		t.Fatalf("snapshot histogram = %+v", hs)
	}
}

func TestConcurrentUpdatesSumExactly(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_ns", "", LatencyBucketsNs())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

func TestEventLogRing(t *testing.T) {
	l := NewEventLog(3)
	sink := l.Sink()
	for i := 1; i <= 5; i++ {
		sink(Event{Kind: EventSegmentGenerated, A: int64(i)})
	}
	if l.Total() != 5 {
		t.Fatalf("total = %d, want 5", l.Total())
	}
	evs := l.Events()
	if len(evs) != 3 || evs[0].A != 3 || evs[2].A != 5 {
		t.Fatalf("ring = %+v, want A=3,4,5", evs)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{
		EventSegmentGenerated, EventSegmentTransmitted, EventSegmentDropped,
		EventSegmentDelivered, EventLevelChange, EventDropDecision,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
}

// TestEventKindNumbers pins the surviving kinds to the numbers they had
// before the assign, failover, fault and health kinds retired: qoe's
// forced-tie digest hashes them.
func TestEventKindNumbers(t *testing.T) {
	for k, want := range map[EventKind]int{
		EventSegmentGenerated: 1, EventSegmentTransmitted: 2, EventSegmentDropped: 3,
		EventSegmentDelivered: 4, EventLevelChange: 5, EventDropDecision: 8,
	} {
		if int(k) != want {
			t.Errorf("%s = %d, want %d", k, k, want)
		}
	}
}

func TestBundleConstructorsShareInstruments(t *testing.T) {
	r := NewRegistry()
	a, b := NodeStatsIn(r), NodeStatsIn(r)
	a.SegmentsGenerated.Inc()
	if b.SegmentsGenerated.Load() != 1 {
		t.Fatal("NodeStatsIn bundles do not share registry instruments")
	}
	e1, e2 := EngineStatsIn(r), EngineStatsIn(r)
	e1.Executed.Inc()
	if e2.Executed.Load() != 1 {
		t.Fatal("EngineStatsIn bundles do not share registry instruments")
	}
	s1, s2 := AssignStatsIn(r), AssignStatsIn(r)
	s1.JoinsFog.Inc()
	if s2.JoinsFog.Load() != 1 {
		t.Fatal("AssignStatsIn bundles do not share registry instruments")
	}
	l1, l2 := LinkStatsIn(r, "x"), LinkStatsIn(r, "x")
	l1.SentBytes.Add(10)
	if l2.SentBytes.Load() != 10 {
		t.Fatal("LinkStatsIn bundles do not share registry instruments")
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBucketsNs())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i) % 1e9)
	}
}
