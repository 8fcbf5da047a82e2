// Command cloudfog-sim regenerates the CloudFog paper's figures and prints
// each as a text table with the same axes the paper plots: the simulator
// panels (5a, 5b, 7a, 8a, 9a, 10a, 11a) on the world the flags describe, and
// the PlanetLab panels (6a, 6b, 7b, 8b, 9b, 10b, 11b) on the PlanetLab run's
// own world of 750 players, 300 supernodes and 2 datacenters, to which
// -players, -supernodes, -datacenters and -horizon do not apply. Figures come
// from the experiment package's registry, so -figures accepts any
// comma-separated subset by name. figecon prices the fog that ran with the
// paper's economic model (Eqs. 1-6) at each reward rate.
//
// With -report the run also aggregates the observability counters of every
// system and QoE simulation it performed (segment lifecycle, drop
// decisions, assignment outcomes, engine events) and writes them as a JSON
// snapshot, checking that the segment ledger balances before exiting.
//
// The resilience figures (figchurn, figrecovery) replay a deterministic
// fault profile — supernode crashes, loss bursts, latency spikes, bandwidth
// collapse — against the fog; -faults loads a custom profile JSON, and the
// -report fault ledger then reconciles every orphaned player against the
// failover outcomes. -detector swaps their oracle repair delays for real
// heartbeat detection (timeout or phi-accrual) and -overload installs the
// supernode degradation ladder; figdetect sweeps all three detector modes
// against the same crash schedule and the -report health ledger reconciles
// every observed kill against detections.
//
// Every invocation is built from one flight.RunSpec, the launch spec a
// recording stores, so the flags are checked once and -record runs and
// refuses exactly what the same flags without it do. -record captures the
// run as a flight recording: the launch spec, the compiled fault schedules,
// canonical figure bytes, per-figure observability deltas, and the scaling
// run's RNG witness.
// cloudfog-replay re-runs a recording and verifies it bit-identically, or
// re-runs it with one knob overridden and prints the QoE diff.
//
// Usage:
//
//	cloudfog-sim -figures all
//	cloudfog-sim -figures fig9a,fig10a -report out.json
//	cloudfog-sim -figures 5b -players 10000 -supernodes 600
//	cloudfog-sim -figures figrecovery -faults examples/chaos/profile.json -report chaos.json
//	cloudfog-sim -figures figdetect -report detect.json
//	cloudfog-sim -figures figchurn -detector phi -overload
//	cloudfog-sim -figures figscale -detector timeout -record incident.flight
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"cloudfog/internal/experiment"
	"cloudfog/internal/flight"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
)

var (
	figuresFlag    = flag.String("figures", "", "comma-separated figures to regenerate ("+strings.Join(experiment.FigureNames(), ", ")+"; bare \"9a\" accepted, \"all\" or empty = every figure)")
	seedFlag       = flag.Int64("seed", 2026, "experiment seed")
	playersFlag    = flag.Int("players", 10000, "population size")
	supernodesFlag = flag.Int("supernodes", 600, "supernodes selected from capable players")
	dcsFlag        = flag.Int("datacenters", 5, "default number of main datacenters")
	horizonFlag    = flag.Duration("horizon", 60*time.Second, "virtual time horizon for QoE figures")
	csvFlag        = flag.Bool("csv", false, "emit comma-separated tables instead of aligned text")
	reportFlag     = flag.String("report", "", "write a JSON observability snapshot of the run to this file")
	workersFlag    = flag.Int("sweep-workers", 0, "sweep worker pool size: 0 = one per CPU, 1 = serial")
	faultsFlag     = flag.String("faults", "", "fault profile JSON for the resilience figures (figchurn, figrecovery); empty = built-in chaos profile")
	detectorFlag   = flag.String("detector", "", "failure detector for the resilience figures: oracle (default, drawn delays), timeout, or phi")
	overloadFlag   = flag.Bool("overload", false, "install the supernode overload-degradation ladder on resilience-figure fogs")
	shardsFlag     = flag.Int("shards", 1, "workers that share a run's per-node QoE simulations (figure output is byte-identical at any value)")
	epochFlag      = flag.Duration("epoch", 0, "scaling-run barrier interval (0 = 15s default)")
	nodeBudgetFlag = flag.Int("scale-nodes", 0, "scaling run: supernodes sampled for segment-level QoE per epoch (0 = 32 default, negative = all)")
	scaleFlag      = flag.Bool("scale", false, "run only the scaling experiment (figscale) and print its timing and tallies; -figures must be empty, all or figscale (to record it, use -figures figscale -record)")
	recordFlag     = flag.String("record", "", "run the selected figures under the flight recorder and write the recording to this file")
	cpuProfFlag    = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfFlag    = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()
	if err := withProfiles(run); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfog-sim:", err)
		os.Exit(1)
	}
}

// withProfiles brackets fn with the standard pprof hooks: a CPU profile
// covering the whole run and a heap profile snapped at the end.
func withProfiles(fn func() error) error {
	if *cpuProfFlag != "" {
		f, err := os.Create(*cpuProfFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if err := fn(); err != nil {
		return err
	}
	if *memProfFlag != "" {
		f, err := os.Create(*memProfFlag)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live objects
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

func run() error {
	if *recordFlag != "" && *scaleFlag {
		return fmt.Errorf("-scale cannot be recorded; use -figures figscale -record %s", *recordFlag)
	}
	spec, err := specFromFlags()
	if err != nil {
		return err
	}
	if *scaleFlag && !slices.Equal(spec.Figures, []string{"figscale"}) &&
		!slices.Equal(spec.Figures, experiment.FigureNames()) {
		return fmt.Errorf("-scale runs figscale alone, not -figures %s; leave -figures empty, all or figscale", *figuresFlag)
	}
	if *recordFlag != "" {
		return runRecord(spec)
	}
	var reg *obs.Registry
	if *reportFlag != "" {
		reg = obs.NewRegistry()
	}

	fmt.Printf("CloudFog simulator — %d players, %d supernodes, %d datacenters, seed %d\n\n",
		spec.Players, spec.Supernodes, spec.Datacenters, spec.Seed)

	worldStart := time.Now()
	w, opts, figs, err := spec.Start(reg)
	if err != nil {
		return err
	}
	worldBuild := time.Since(worldStart)

	if profile := opts.Faults; profile != nil {
		fmt.Printf("fault profile %q loaded from %s (seed %d, %d specs, %v)\n\n",
			profile.Name, *faultsFlag, profile.Seed, len(profile.Specs), profile.Duration.Duration)
	}

	if *scaleFlag {
		if err := runScale(w, opts, worldBuild); err != nil {
			return err
		}
	} else {
		for _, fig := range figs {
			res, err := fig.Run(w, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", fig.Name, err)
			}
			printFigure(fig, res)
		}
	}

	if *reportFlag != "" {
		if err := writeReport(*reportFlag, reg.Snapshot()); err != nil {
			return err
		}
	}
	return nil
}

// printFigure renders one figure result the way the CLI always has.
func printFigure(fig experiment.Figure, res experiment.FigureResult) {
	title := fig.Title
	if res.Title != "" {
		title = res.Title
	}
	fmt.Println(title)
	switch {
	case len(res.Latency) > 0:
		for _, r := range res.Latency {
			fmt.Printf("  %-12s mean=%-8v median=%-8v p90=%v\n",
				r.System, r.Mean.Round(time.Millisecond),
				r.Median.Round(time.Millisecond), r.P90.Round(time.Millisecond))
		}
		fmt.Println()
	default:
		fmt.Println(table(fig.XLabel, res.Series))
	}
}

// table renders series as -csv asks: comma-separated, or aligned text.
func table(xLabel string, series []metrics.Series) string {
	if *csvFlag {
		return metrics.CSV(xLabel, series)
	}
	return metrics.Table(xLabel, series)
}

// specFromFlags lifts the CLI invocation into a flight.RunSpec, the one
// description every run starts from and the launch half of a recording.
func specFromFlags() (flight.RunSpec, error) {
	spec := flight.RunSpec{
		Seed:         *seedFlag,
		Players:      *playersFlag,
		Supernodes:   *supernodesFlag,
		Datacenters:  *dcsFlag,
		Shards:       *shardsFlag,
		SweepWorkers: *workersFlag,
		Horizon:      *horizonFlag,
		Epoch:        *epochFlag,
		NodeBudget:   *nodeBudgetFlag,
		Detector:     *detectorFlag,
		Overload:     *overloadFlag,
	}
	if sel := strings.TrimSpace(*figuresFlag); sel != "" && !strings.EqualFold(sel, "all") {
		spec.Figures = strings.Split(sel, ",")
	}
	if *faultsFlag != "" {
		data, err := os.ReadFile(*faultsFlag)
		if err != nil {
			return spec, err
		}
		spec.FaultProfile = data
	}
	return spec.Normalize()
}

// runRecord executes the selected figures under the flight recorder,
// prints them as usual, and persists the recording.
func runRecord(spec flight.RunSpec) error {
	fmt.Printf("CloudFog flight recorder — %s\n\n", spec.Summary())
	rec, err := flight.Record(spec)
	if err != nil {
		return err
	}
	for _, fc := range rec.Figures {
		fig, err := experiment.FigureByName(fc.Name)
		if err != nil {
			return err
		}
		printFigure(fig, fc.Fig)
	}
	if err := flight.Save(*recordFlag, rec); err != nil {
		return err
	}
	data := flight.Encode(rec)
	fmt.Printf("flight recording written to %s (%d bytes, %d figures, %d schedules, world %08x)\n",
		*recordFlag, len(data), len(rec.Figures), len(rec.Schedules), rec.WorldFP)
	if *reportFlag != "" {
		return writeReport(*reportFlag, rec.Final)
	}
	return nil
}

// runScale executes only the scaling experiment and prints its wall time,
// beside the time the world took to generate, the memory the process has
// obtained from the operating system by the end of the run, and the heap the
// world keeps live after it, per player — the -scale demo path for
// million-player runs.
func runScale(w *experiment.World, opts experiment.RunOptions, worldBuild time.Duration) error {
	start := time.Now()
	res, fig, err := experiment.ScaleRun(w, opts)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem) // w, read below, stays live through the collection
	fmt.Println(fig.Title)
	fmt.Println(table(fig.XLabel, fig.Series))
	fmt.Printf("shards=%d epochs=%d wall=%v world=%v mem=%dMiB live_per_player=%dB\n", res.Shards, res.Epochs,
		wall.Round(time.Millisecond), worldBuild.Round(time.Millisecond), mem.Sys>>20, mem.HeapAlloc/uint64(len(w.Pop.Players)))
	fmt.Printf("kills=%d recoveries=%d detections=%d (mean %.2fs) repairs=%d lapsed=%d cloud_hops=%d moved=%d pending_end=%d\n",
		res.Kills, res.Recoveries, res.Detections, res.MeanDetection.Seconds(),
		res.Repairs, res.Lapsed, res.CloudHops, res.Moved, res.PendingEnd)
	fmt.Printf("sampled continuity: %.4f over %d players (%d node-epoch simulations)\n",
		res.MeanContinuity, res.QoEPlayers, res.QoENodeRuns)
	return nil
}

// runReport is the -report JSON payload: the raw instrument snapshot plus
// the ledger reconciliations derived from it. The ledgers are the flight
// package's — the same conservation laws the what-if mode enforces on both
// sides of a counterfactual — so a -report run and a recording reconcile
// through one code path.
type runReport struct {
	Snapshot       obs.Snapshot         `json:"snapshot"`
	Reconciliation flight.SegmentLedger `json:"reconciliation"`
	// Faults reconciles the fault-injection orphan ledger when the run
	// injected any faults; omitted otherwise.
	Faults *flight.FaultLedger `json:"faults,omitempty"`
	// Health reconciles the heartbeat detection ledger when any run used a
	// heartbeat detector; omitted otherwise.
	Health *flight.HealthLedger `json:"health,omitempty"`
}

func writeReport(path string, snap obs.Snapshot) error {
	ledgers := flight.Reconcile(snap)
	rec := ledgers.Segments
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(runReport{Snapshot: snap, Reconciliation: rec,
		Faults: ledgers.Faults, Health: ledgers.Health}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("observability report written to %s (generated=%d delivered=%d dropped=%d inflight=%d)\n",
		path, rec.Generated, rec.Delivered, rec.Dropped, rec.InFlightEnd)
	if faults := ledgers.Faults; faults != nil {
		fmt.Printf("fault ledger: kills=%d recoveries=%d orphaned=%d backup_hits=%d reassigns=%d lapsed=%d pending=%d\n",
			faults.Kills, faults.Recoveries, faults.Orphaned, faults.BackupHits,
			faults.Reassigns, faults.Lapsed, faults.PendingEnd)
	}
	if hl := ledgers.Health; hl != nil {
		fmt.Printf("health ledger: heartbeats=%d (lost %d) kills_observed=%d detected=%d pending=%d false_positives=%d\n",
			hl.HeartbeatsSent, hl.HeartbeatsLost, hl.KillsObserved, hl.Detected, hl.DetectPending, hl.FalsePositives)
	}
	return ledgers.Err()
}
