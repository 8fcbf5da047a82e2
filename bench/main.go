// Command bench is the repository's benchmark: four workloads, six
// end-to-end metrics and, with -trace 1, the per-layer metrics. It measures
// every layer from outside — timing calls into exported functions and
// speaking proto over loopback sockets — so the code it measures is exactly
// the code the rest of the repository ships. See README.md.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	bench set -out <file> [-runs n] [-seed n] [-seconds s]
//	bench compare <a.json> <b.json>
//	bench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareCmd(args[1:])
		case "set":
			return setCmd(args[1:])
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "workload to run: live-steady, live-churn, sim-figures or sim-scale")
		seed      = fs.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds   = fs.Float64("seconds", 20, "length of the timed section")
		trace     = fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
		selfcheck = fs.Bool("selfcheck", false, "prove that time spent before a supernode start does not move op_ms")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *selfcheck {
		return selfcheckCmd(*seed, *seconds)
	}
	wl, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	length := time.Duration(*seconds * float64(time.Second))
	e := env{seed: *seed, simMinReps: simMinReps}

	var r *result
	if *trace == 1 {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", wl.name, *seed))
		r, err = runTraced(wl, e, length, path)
	} else {
		r, err = runEndToEnd(wl, e, length)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	return r.print(wl.name)
}

// print writes every metric by name with its unit, then the one-line JSON
// result the driver reads. A failed operation fails the run: the workloads
// are chosen so that none does.
func (r *result) print(workload string) error {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", workload, r.attempted, r.failed)
	for _, name := range names {
		fmt.Printf("  %-28s %14.4f %s\n", name, r.metrics[name].Value, r.metrics[name].Unit)
	}
	for _, note := range r.notes {
		fmt.Printf("  # %s\n", note)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", workload, r.failed, r.attempted)
	}
	return nil
}
