package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

const (
	defaultSeed = 2026
	// frame is the cloud tick and the supernode render period (30 per second).
	frame = time.Second / 30
	// gaugeEvery is the window the live workloads sample CPU per work over.
	gaugeEvery = time.Second
	// opTimeout is when an operation counts as failed however it ends.
	opTimeout = 2 * time.Second
)

// env is what a workload builds its inputs from.
type env struct {
	seed int64
	// startJitter, when set, returns a sleep the live workloads insert
	// before each supernode start (bench -selfcheck): the absolute-time
	// start must absorb it without moving the tick phases.
	startJitter func() time.Duration
	// simMinReps is the fewest repetitions a sim timed section runs.
	simMinReps int
}

func (e env) rand(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

// measurement is one timed section of a workload.
type measurement struct {
	attempted, failed int
	opMs              []float64 // latency of each operation that succeeded
	work              float64   // units of work completed in the section
	wall              time.Duration
	// cpuUsPerWork are samples taken through the section: CPU time per unit
	// of work in each window (or repetition).
	cpuUsPerWork []float64
	// peakRSSMB is the largest resident set seen through the section.
	peakRSSMB float64
	// lateMs is how late the open-loop generators issued each operation.
	lateMs []float64
	// parts holds, per probe-visible boundary, the samples a traced section
	// took (ms); the layer metrics the workload owns are medians of these.
	parts map[string][]float64
}

func (m *measurement) part(name string, ms float64) {
	if m.parts == nil {
		m.parts = make(map[string][]float64)
	}
	m.parts[name] = append(m.parts[name], ms)
}

// deployment is a workload that has been set up and warmed.
type deployment interface {
	// measure runs the timed section for the given time, recording spans
	// when tr is non-nil.
	measure(length time.Duration, tr *tracer) (*measurement, error)
	// check verifies the outputs of everything measured so far.
	check() error
	close()
}

type workload struct {
	name string
	// paced says the workload's operations are paced by timers (the live
	// deployments): their latencies form a distribution, reported as its
	// median and p95. The others (the sim workloads) repeat one CPU-bound
	// operation, reported by its fastest repetition; see opTime.
	paced bool
	// setups is how many times an untraced run sets the workload up; it
	// reports the fastest and measures on the last deployment. The sim
	// set-ups are CPU-bound and get more tries at a quiet moment.
	setups int
	setup  func(env) (deployment, error)
}

var workloads = []workload{
	{name: "live-steady", paced: true, setups: 3, setup: setupSteady},
	{name: "live-churn", paced: true, setups: 3, setup: setupChurn},
	{name: "sim-figures", setups: 5, setup: setupFigures},
	{name: "sim-scale", setups: 5, setup: setupScale},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits fixes the six end-to-end metrics and their units.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"op_ms":           "ms",
	"op_tail_ms":      "ms",
	"work_per_s":      "1/s",
	"cpu_us_per_work": "us",
	"peak_rss_mb":     "MiB",
}

// result is what one invocation reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string // human-readable detail: quartiles, counts
}

// runEndToEnd is the untraced run: wl.setups set-ups, one timed section on
// the last deployment, output checks, the six end-to-end metrics. A set-up
// is timed from workload start until the first timed operation may begin,
// one untimed warm-up operation included.
func runEndToEnd(wl workload, e env, length time.Duration) (*result, error) {
	var (
		d      deployment
		setups []float64
	)
	for i := 0; i < wl.setups; i++ {
		if d != nil {
			d.close()
			// Collect what the torn-down deployment left, so that its
			// garbage is not marked on the next set-up's time. The memory
			// stays with the process: returning it (debug.FreeOSMemory)
			// made the next set-up fault every page back in, 1.5 → 2.0 s
			// on sim-scale.
			runtime.GC()
		}
		start := time.Now()
		var err error
		if d, err = wl.setup(e); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.close()
	stop := watchPeakRSS()
	m, err := d.measure(length, nil)
	if err != nil {
		return nil, err
	}
	m.peakRSSMB = stop()
	if err := d.check(); err != nil {
		return nil, fmt.Errorf("output check: %w", err)
	}
	return endToEnd(wl, setups, m)
}

// fastest returns the smallest of xs.
func fastest(xs []float64) float64 { return sorted(xs)[0] }

// opTime reduces a section's operation times to the one figure op_ms
// reports. Timer-paced latencies wait on tickers, not on the CPU, and keep
// the median. A CPU-bound repetition is reported by the fastest of a fixed
// number: this class of box (2 vCPUs of a shared host) slows memory-bound
// code by 5–40% for minutes at a time — a pointer chase over 64 MiB run
// beside sim-scale's repetition in one process slows with it (680–920 ms
// against 1150–2200 ms) while a register-only loop holds ±3% — and over 15
// minutes of one seed in one process the median of ten back-to-back
// repetitions ranged 22% (quartiles 8.5% apart) where the fastest of them
// ranged 12% (3.1%). The median and quartiles are printed beside it.
func (wl workload) opTime(opMs []float64) float64 {
	if wl.paced {
		return median(opMs)
	}
	return fastest(opMs)
}

// endToEnd reduces the set-up times and one timed section to the six
// end-to-end metrics.
func endToEnd(wl workload, setups []float64, m *measurement) (*result, error) {
	r := &result{attempted: m.attempted, failed: m.failed, metrics: make(map[string]metric)}
	if len(m.opMs) == 0 || m.work <= 0 || len(m.cpuUsPerWork) == 0 {
		return nil, fmt.Errorf("too little measured: %d operations succeeded of %d, %d CPU samples",
			len(m.opMs), m.attempted, len(m.cpuUsPerWork))
	}
	set := func(name string, v float64) { r.metrics[name] = metric{Value: v, Unit: endToEndUnits[name]} }
	op := wl.opTime(m.opMs)
	set("op_ms", op)
	if wl.paced {
		p95, err := tail(m.opMs)
		if err != nil {
			return nil, fmt.Errorf("op_tail_ms: %w", err)
		}
		set("op_tail_ms", p95)
		set("work_per_s", m.work/m.wall.Seconds())
		// The median window: a total would carry every burst of
		// interference in the section (7% between runs against 1.6%).
		set("cpu_us_per_work", median(m.cpuUsPerWork))
	} else {
		// A few dozen repetitions have no tail to report. The driver wants
		// every workload to print every metric, so this repeats op_ms: it
		// adds no information and no noise.
		set("op_tail_ms", op)
		set("work_per_s", m.work/float64(len(m.opMs))/(op/1000))
		set("cpu_us_per_work", fastest(m.cpuUsPerWork))
	}
	// Set-up is CPU-bound wherever it is not timer-paced: the fastest of
	// the set-ups, for the reason opTime gives.
	set("setup_s", fastest(setups))
	// The peak of the timed section, not the process's high-water mark: in
	// the small processes that mark is set during set-up by how one GC
	// cycle fell (sim-figures: 11.0–15.3 MiB over runs of one binary,
	// quartiles 17–21% apart, against 11.3–12.2 for its timed sections).
	set("peak_rss_mb", m.peakRSSMB)

	q1, q2, q3 := quartiles(m.opMs)
	r.notes = append(r.notes,
		fmt.Sprintf("operation times: fastest %.3f, quartiles %.3f / %.3f / %.3f ms over %d samples", fastest(m.opMs), q1, q2, q3, len(m.opMs)),
		fmt.Sprintf("set-ups %.3f s", setups),
		fmt.Sprintf("work %.0f in %.3f s; process high-water mark %.1f MiB, set-ups included", m.work, m.wall.Seconds(), peakRSSMB()))
	c1, c2, c3 := quartiles(m.cpuUsPerWork)
	r.notes = append(r.notes, fmt.Sprintf("CPU per work: fastest %.4f, quartiles %.4f / %.4f / %.4f us over %d samples", fastest(m.cpuUsPerWork), c1, c2, c3, len(m.cpuUsPerWork)))
	if len(m.lateMs) >= 2 {
		_, _, l3 := quartiles(m.lateMs)
		r.notes = append(r.notes, fmt.Sprintf("generator lateness median %.3f ms, upper quartile %.3f ms", median(m.lateMs), l3))
	}
	return r, nil
}
