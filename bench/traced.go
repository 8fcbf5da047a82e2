package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracedSimReps is the fewest repetitions a sim section of a traced run
// makes: the per-layer numbers carry no bound, and the run has the whole
// probe suite still to fit into its time.
const tracedSimReps = 3

// measureOnce sets a workload up once, runs one timed section and checks its
// outputs.
func measureOnce(wl workload, e env, length time.Duration, tr *tracer) (*measurement, error) {
	d, err := wl.setup(e)
	if err != nil {
		return nil, err
	}
	defer d.close()
	m, err := d.measure(length, tr)
	if err != nil {
		return nil, err
	}
	if err := d.check(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return m, nil
}

// runTraced is the -trace 1 run. The workload runs a quarter of the run
// length untraced and a quarter traced, on one deployment, so that the
// difference between the two is the tracing overhead; then every layer probe
// runs with inputs from the same seed. The driver wants every per-layer
// metric, as measured, from every workload's traced run, so a live workload
// other than the one being run gets a traced section of the same length for
// the layer metrics only it can show.
func runTraced(wl workload, e env, length time.Duration, path string) (*result, error) {
	e.simMinReps = tracedSimReps
	d, err := wl.setup(e)
	if err != nil {
		return nil, err
	}
	closeOnce := sync.OnceFunc(d.close)
	defer closeOnce()
	plain, err := d.measure(length/4, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := d.measure(length/4, tr)
	if err != nil {
		return nil, err
	}
	if err := d.check(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	closeOnce()
	if len(plain.opMs) == 0 || len(traced.opMs) == 0 {
		return nil, fmt.Errorf("no operation succeeded (%d of %d failed)", plain.failed+traced.failed, plain.attempted+traced.attempted)
	}
	if err := tr.write(path); err != nil {
		return nil, err
	}

	l := &layers{e: e, out: make(map[string]metric)}
	if err := l.probes(); err != nil {
		return nil, err
	}
	live := map[string]*measurement{wl.name: traced}
	for _, name := range []string{"live-steady", "live-churn"} {
		if live[name] != nil {
			continue
		}
		other, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		if live[name], err = measureOnce(other, e, length/4, newTracer()); err != nil {
			return nil, fmt.Errorf("%s, run for its layer metrics: %w", name, err)
		}
	}
	steady, churn := live["live-steady"], live["live-churn"]
	l.set("live.tick_wait_ms", median(steady.parts["tick_wait"]))
	l.set("live.render_wait_ms", median(steady.parts["downstream"])-l.out["live.link_oneway_ms"].Value)
	l.set("coord.place_rtt_ms", median(churn.parts["place_rtt"]))
	l.set("live.join_ack_ms", median(churn.parts["join_ack"]))
	l.set("live.first_frame_wait_ms", median(churn.parts["first_frame_wait"]))
	late := traced.lateMs
	if len(late) == 0 {
		late = steady.lateMs
	}
	p95, err := percentile(late, 95)
	if err != nil {
		return nil, fmt.Errorf("bench.gen_late_p95_ms: %w", err)
	}
	l.set("bench.gen_late_p95_ms", p95)
	spans := tr.snapshot()
	l.set("trace.coverage_frac", coverage(spans))
	l.set("trace.overhead_frac", wl.opTime(traced.opMs)/wl.opTime(plain.opMs)-1)

	r := &result{
		attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed,
		metrics: l.out,
		notes: []string{
			fmt.Sprintf("%d spans in %s", len(spans), path),
			fmt.Sprintf("op_ms %.3f untraced, %.3f traced over %d and %d samples",
				wl.opTime(plain.opMs), wl.opTime(traced.opMs), len(plain.opMs), len(traced.opMs)),
		},
	}
	r.notes = append(r.notes, "self time by span: "+selfTimeSummary(spans))
	for name := range perLayerUnits {
		if _, ok := l.out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", name)
		}
	}
	// The layer metrics on an operation's blocking chain should account for
	// its latency; what is left over is the harness's own time (generator
	// lateness, the probe's writes), which grows when the box is busy.
	var chain []string
	switch wl.name {
	case "live-steady":
		chain = []string{"live.tick_wait_ms", "live.render_wait_ms", "live.link_oneway_ms"}
	case "live-churn":
		chain = []string{"coord.place_rtt_ms", "live.join_ack_ms", "live.first_frame_wait_ms"}
	}
	if chain != nil {
		var sum float64
		for _, name := range chain {
			sum += l.out[name].Value
		}
		op := wl.opTime(traced.opMs)
		r.notes = append(r.notes, fmt.Sprintf("%s sum to %.3f ms, %+.1f%% from op_ms %.3f",
			strings.Join(chain, " + "), sum, 100*(sum-op)/op, op))
	}
	return r, nil
}

// selfTimeSummary totals self time by span name, as shares of the
// operations' wall time, largest first.
func selfTimeSummary(spans []span) string {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	var total int64
	for _, s := range spans {
		byName[s.Name] += self[s.ID]
		if s.Parent < 0 {
			total += s.duration()
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Slice(names, func(a, b int) bool { return byName[names[a]] > byName[names[b]] })
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s %.1f%%", name, 100*float64(byName[name])/float64(total))
	}
	return strings.Join(parts, ", ")
}

// selfcheckTolerance is how far op_ms may move in bench -selfcheck. A start
// that slipped would move the pooled median by up to a quarter of a frame
// (8 ms of 35); run-to-run noise on live-steady is 1–2%.
const selfcheckTolerance = 0.05

// selfcheckCmd is the proof that the live workloads' tick phases do not
// depend on how long the harness takes to reach a supernode start: it runs
// live-steady as it is and again with a random sleep of up to a frame
// inserted before every start, and fails if op_ms moves.
func selfcheckCmd(seed int64, seconds float64) error {
	wl, err := workloadByName("live-steady")
	if err != nil {
		return err
	}
	length := time.Duration(seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var op [2]float64
	for i, e := range []env{
		{seed: seed},
		{seed: seed, startJitter: func() time.Duration { return time.Duration(rng.Int63n(int64(frame))) }},
	} {
		m, err := measureOnce(wl, e, length, nil)
		if err != nil {
			return err
		}
		if m.failed > 0 || len(m.opMs) == 0 {
			return fmt.Errorf("selfcheck: %d of %d operations failed", m.failed, m.attempted)
		}
		op[i] = median(m.opMs)
	}
	moved := math.Abs(op[1]-op[0]) / op[0]
	fmt.Printf("selfcheck: op_ms %.3f as is, %.3f with 0–%.0f ms slept before each supernode start: moved %.2f%%, tolerance %.0f%%\n",
		op[0], op[1], ms(frame), 100*moved, 100*selfcheckTolerance)
	if moved > selfcheckTolerance {
		return fmt.Errorf("selfcheck: start-up timing moved op_ms by %.2f%%, beyond %.0f%%", 100*moved, 100*selfcheckTolerance)
	}
	return nil
}
