package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// contract is BENCHMARK.json: what the driver runs and the bound by which
// each end-to-end metric may worsen.
type contract struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadContract reads BENCHMARK.json from the checkout root: the working
// directory when run through run.sh, its parent under go test.
func loadContract() (*contract, error) {
	var (
		blob []byte
		err  error
	)
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if blob, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// runRecord is one run of one workload inside a set.
type runRecord struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runSet is a complete set of runs: every workload, several seeds each.
type runSet struct {
	Seconds float64                `json:"seconds"`
	Runs    map[string][]runRecord `json:"runs"`
}

// setCmd runs every workload several times, each run a fresh process with
// its own seed, and writes the set bench compare reads.
func setCmd(args []string) error {
	fs := flag.NewFlagSet("bench set", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "file to write the set to")
		runs    = fs.Int("runs", 10, "runs per workload")
		seed    = fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
		seconds = fs.Float64("seconds", 0, "timed section per run (default: run_seconds of BENCHMARK.json)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" || *runs < 1 {
		return fmt.Errorf("set needs -out and at least one run")
	}
	if *seconds == 0 {
		c, err := loadContract()
		if err != nil {
			return err
		}
		*seconds = float64(c.RunSeconds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Seconds: *seconds, Runs: make(map[string][]runRecord)}
	for _, wl := range workloads {
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			cmd := exec.Command(self, "-workload", wl.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(*seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			var line struct {
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", wl.name, s, err)
			}
			rec := runRecord{Seed: s, Attempted: line.Attempted, Failed: line.Failed, Metrics: make(map[string]float64)}
			for name, m := range line.Metrics {
				rec.Metrics[name] = m.Value
			}
			set.Runs[wl.name] = append(set.Runs[wl.name], rec)
			fmt.Fprintf(os.Stderr, "%s seed %d: op_ms %.3f\n", wl.name, s, rec.Metrics["op_ms"])
		}
	}
	blob, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(blob, '\n'), 0o644)
}

func loadSet(path string) (*runSet, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func (s *runSet) values(workload, metric string) (vals []float64, failed int) {
	for _, r := range s.Runs[workload] {
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v)
		}
		failed += r.Failed
	}
	return vals, failed
}

// worseBy is how much worse b is than a as a share of a, given which
// direction is better; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// issueBounds are the bounds ISSUE 13 fixed per end-to-end metric, for the
// timer-paced live workloads and for the CPU-bound sim ones. BENCHMARK.json
// can carry only one bound per metric name for all workloads, and the driver
// wants every workload's spread over ten seeds inside it, so there the
// noisiest workload on the noisiest host sets it; bench compare holds each
// workload to its own bound here as well.
var issueBounds = map[string][2]float64{
	"setup_s":         {0.10, 0.10},
	"op_ms":           {0.05, 0.07},
	"op_tail_ms":      {0.08, 0.08},
	"work_per_s":      {0.05, 0.05},
	"cpu_us_per_work": {0.10, 0.10},
	"peak_rss_mb":     {0.10, 0.10},
}

// resolve judges b against a at a bound the way the no-regression rule
// does: where either set's spread is wider than the bound the metric is
// unresolved, not unchanged.
func resolve(worse, spreadA, spreadB, bound float64) string {
	switch {
	case spreadA > bound || spreadB > bound:
		return "unresolved"
	case worse <= bound:
		return "yes"
	}
	return "NO"
}

// compareCmd prints, per workload and end-to-end metric, both sets' medians
// and quartile spreads, whether they agree within the metric's bound in
// BENCHMARK.json — the driver's rule: second median no worse by more than
// the bound, and both spreads inside it, set-up time's excepted — and how b
// stands against a at the workload's own bound from ISSUE 13. It fails on
// the first; the second is the finer rule a change is judged by.
func compareCmd(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare a.json b.json")
	}
	c, err := loadContract()
	if err != nil {
		return err
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-16s %14s %14s %8s %8s %8s %6s %-7s %6s  %s\n",
		"workload", "metric", "median a", "median b", "iqr a", "iqr b", "b worse", "bound", "within", "issue", "at the issue's bound")
	bad := 0
	for _, wl := range c.Workloads {
		w, err := workloadByName(wl.Name)
		if err != nil {
			return err
		}
		class := 1
		if w.paced {
			class = 0
		}
		for _, spec := range c.EndToEnd {
			// The sim workloads have no tail: what they print under the
			// name repeats op_ms, and gating it would gate op_ms twice.
			if spec.Name == "op_tail_ms" && !w.paced {
				continue
			}
			va, fa := a.values(wl.Name, spec.Name)
			vb, fb := b.values(wl.Name, spec.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Printf("%-12s %-16s needs two runs in both sets, has %d and %d\n", wl.Name, spec.Name, len(va), len(vb))
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			sa, sb := spread(va), spread(vb)
			worse := worseBy(ma, mb, spec.Better)
			ok := worse <= spec.Bound && fa+fb == 0
			// Set-up time is gated on its median only: it is the one
			// metric whose spread the acceptance check leaves out.
			if spec.Name != "setup_s" {
				ok = ok && sa <= spec.Bound && sb <= spec.Bound
			}
			verdict := "yes"
			if !ok {
				verdict = "NO"
				bad++
			}
			tight := issueBounds[spec.Name][class]
			fmt.Printf("%-12s %-16s %14.4f %14.4f %7.2f%% %7.2f%% %+7.2f%% %5.0f%% %-7s %5.0f%%  %s\n",
				wl.Name, spec.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*spec.Bound, verdict, 100*tight, resolve(worse, sa, sb, tight))
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload-metric pairs are outside their bound", bad)
	}
	return nil
}
