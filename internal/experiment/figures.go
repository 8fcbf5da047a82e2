package experiment

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/metrics"
	"cloudfog/internal/qoe"
	"cloudfog/internal/shard"
)

// The paper's evaluation sweeps (§IV). Counts exceeding the world's
// population or supernode pool are trimmed rather than rejected, so every
// figure runs on any world.
var (
	// coverageReqs are the network-requirement curves of the coverage
	// figures: the Figure 2 game ladder.
	coverageReqs = []time.Duration{
		30 * time.Millisecond, 50 * time.Millisecond, 70 * time.Millisecond,
		90 * time.Millisecond, 110 * time.Millisecond,
	}
	dcCounts         = []int{1, 5, 10, 15, 20, 25}                // Figure 5(a)
	snCounts         = []int{0, 100, 200, 300, 400, 500, 600}     // Figure 5(b)
	playerCounts     = []int{1000, 2000, 4000, 6000, 8000, 10000} // Figure 7(a)
	continuityCounts = []int{500, 1000, 2000, 3000}               // Figure 9(a)
	loads            = []int{5, 10, 15, 20, 25, 30}               // Figures 10(a), 11(a): players per supernode
	// rewards is the figecon sweep of the reward rate c_s, per Mbit/s.
	rewards = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}
	// churnRates is the figchurn supernode kill-rate sweep, in kills per
	// minute. Rate 0 is the fault-free baseline point.
	churnRates = []float64{0, 1, 2, 4, 8}
	// detectIntervals is the figdetect heartbeat-interval sweep.
	detectIntervals = []time.Duration{2 * time.Second, 5 * time.Second, 10 * time.Second, 15 * time.Second, 20 * time.Second}
)

// RunOptions is the shared knob set every registered figure accepts. The
// zero value means "paper defaults": a zero horizon, epoch or node budget is
// filled per figure, so one options struct drives every figure of a run. A
// negative horizon or epoch is an error where it would be filled.
type RunOptions struct {
	// Horizon is the virtual-time horizon of the QoE figures (9a runs
	// each point for Horizon/3: its sweep multiplies four systems by the
	// player counts, and the paper's continuity curves flatten well
	// before a full horizon). Default: 60s. A QoE figure refuses one its
	// node runs would spend inside the meters' warm-up (see qoeHorizon).
	Horizon time.Duration
	// Faults, when non-nil, is the fault profile the resilience figures
	// replay (figrecovery runs it verbatim; figchurn borrows its duration).
	// Nil uses the built-in chaos profile keyed by the world seed.
	Faults *fault.Profile
	// Detector selects how the resilience figures notice supernode
	// failures: "oracle" (or empty, the default — drawn repair delays,
	// bit-identical to the pre-health figures), "timeout", or "phi".
	// figdetect always sweeps all three modes regardless.
	Detector string
	// Overload installs the supernode degradation ladder on every fog the
	// resilience figures build.
	Overload bool
	// ScaleEpoch is the sharded scaling run's barrier interval (figscale).
	// Default: 15s.
	ScaleEpoch time.Duration
	// ScaleNodeBudget caps how many supernodes run the segment-level QoE
	// simulation per epoch of the scaling run; the sample is a pure hash
	// of (seed, epoch, node), the same at any worker count. 0 uses the
	// default of 32; pass a negative value to simulate every node.
	ScaleNodeBudget int
	// ScaleDiag, when non-nil, receives the shard.Result of every scaling
	// run executed with these options. The flight recorder uses it to
	// capture the RNG draw counts, which never feed figure bytes and so
	// cannot be recovered from a FigureResult.
	ScaleDiag func(shard.Result)
}

// healthOptions resolves the run's failure-handling knobs, rejecting unknown
// detector names.
func (o RunOptions) healthOptions() (HealthOptions, error) {
	mode, err := health.ParseMode(o.Detector)
	if err != nil {
		return HealthOptions{}, err
	}
	return HealthOptions{Detector: mode, Overload: o.Overload}, nil
}

// filled returns a copy with every unset field at its paper default. A
// negative horizon or epoch is an error, not an unset field: it stays as it is
// in the copy.
func (o RunOptions) filled() (RunOptions, error) {
	var err error
	switch {
	case o.Horizon < 0:
		err = fmt.Errorf("experiment: negative horizon %v", o.Horizon)
	case o.ScaleEpoch < 0:
		err = fmt.Errorf("experiment: negative scale epoch %v", o.ScaleEpoch)
	}
	if o.Horizon == 0 {
		o.Horizon = 60 * time.Second
	}
	if o.ScaleEpoch == 0 {
		o.ScaleEpoch = 15 * time.Second
	}
	if o.ScaleNodeBudget == 0 {
		o.ScaleNodeBudget = 32
	} else if o.ScaleNodeBudget < 0 {
		o.ScaleNodeBudget = 0 // explicit "no cap"
	}
	return o, err
}

// qoeHorizon is the virtual time figure fig simulates QoE for: the filled
// horizon over div. One that ends inside the meters' warm-up is refused — its
// runs would record no packet, and an empty meter reads as perfect continuity.
func (o RunOptions) qoeHorizon(fig string, div time.Duration) (time.Duration, error) {
	o, err := o.filled()
	if err != nil {
		return 0, err
	}
	h := o.Horizon / div
	if warmup := qoe.DefaultOptions().Warmup; h <= warmup {
		return 0, fmt.Errorf("experiment: %s meters QoE over %v of the %v horizon, inside the %v warm-up: it would record nothing",
			fig, h, o.Horizon, warmup)
	}
	return h, nil
}

// trimMax returns the counts not exceeding limit, preserving order.
func trimMax(counts []int, limit int) []int {
	out := make([]int, 0, len(counts))
	for _, c := range counts {
		if c <= limit {
			out = append(out, c)
		}
	}
	return out
}

// FigureResult is one figure's output: series for the sweep figures, or
// per-system latency rows for Figure 8(a). Exactly one of Series/Latency is
// non-empty. Title, when set, is a run-specific caption (e.g. carrying the
// world's datacenter count) that overrides the Figure's static one.
type FigureResult struct {
	Name   string
	Title  string
	XLabel string

	Series  []metrics.Series
	Latency []LatencyResult
}

// Figure is one registered paper figure. Run executes it against a world
// with the given options; it never mutates the world's lasting state (every
// sweep leaves joined players again).
type Figure struct {
	// Name is the canonical registry key, e.g. "fig9a".
	Name string
	// Title is the paper caption the CLI prints.
	Title string
	// XLabel names the swept axis.
	XLabel string
	// Run executes the figure.
	Run func(w *World, o RunOptions) (FigureResult, error)
}

// figures is the registry, in paper order.
var figures = []Figure{
	{
		Name:   "fig5a",
		Title:  "Figure 5(a): user coverage vs number of datacenters (Cloud)",
		XLabel: "#datacenters",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			s, err := CoverageVsDatacenters(w, dcCounts, coverageReqs)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "fig5b",
		Title:  "Figure 5(b): user coverage vs number of supernodes",
		XLabel: "#supernodes",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			s, err := CoverageVsSupernodes(w, trimMax(snCounts, w.Cfg.Supernodes), coverageReqs)
			title := fmt.Sprintf("Figure 5(b): user coverage vs number of supernodes (%d datacenters)",
				w.Cfg.Datacenters)
			return FigureResult{Title: title, Series: s}, err
		},
	},
	{
		Name:   "fig7a",
		Title:  "Figure 7(a): cloud bandwidth consumption (Mbit/s) vs number of players",
		XLabel: "#players",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			s, err := BandwidthVsPlayers(w, trimMax(playerCounts, w.Cfg.Players))
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "fig8a",
		Title:  "Figure 8(a): average response latency per player",
		XLabel: "system",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			res, err := ResponseLatency(w)
			return FigureResult{Latency: res}, err
		},
	},
	{
		Name:   "fig9a",
		Title:  "Figure 9(a): average playback continuity vs concurrent players",
		XLabel: "#players",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			h, err := o.qoeHorizon("fig9a", 3)
			if err != nil {
				return FigureResult{}, err
			}
			s, err := ContinuityVsPlayers(w, trimMax(continuityCounts, w.Cfg.Players), h)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "fig10a",
		Title:  "Figure 10(a): satisfied players, with/without encoding rate adaptation",
		XLabel: "players/SN",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			h, err := o.qoeHorizon("fig10a", 1)
			if err != nil {
				return FigureResult{}, err
			}
			s, err := AdaptationEffect(w, loads, h)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "fig11a",
		Title:  "Figure 11(a): satisfied players, with/without deadline-driven scheduling",
		XLabel: "players/SN",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			h, err := o.qoeHorizon("fig11a", 1)
			if err != nil {
				return FigureResult{}, err
			}
			s, err := SchedulingEffect(w, loads, h)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "figecon",
		Title:  "Economics (Eqs. 1-6): the fog's supernodes priced at each reward rate c_s",
		XLabel: "c_s",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			s, err := EconomicsVsReward(w, rewards)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "figchurn",
		Title:  "Resilience: service quality vs supernode churn rate",
		XLabel: "kills/min",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			ho, err := o.healthOptions()
			if err != nil {
				return FigureResult{}, err
			}
			s, err := QoEVsChurn(w, churnRates, ResilienceProfile(w, o).Duration.Duration, ho)
			return FigureResult{Series: s}, err
		},
	},
	{
		Name:   "figrecovery",
		Title:  "Resilience: recovery timeline under the chaos profile",
		XLabel: "t (s)",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			h, err := o.qoeHorizon("figrecovery", 1)
			if err != nil {
				return FigureResult{}, err
			}
			ho, err := o.healthOptions()
			if err != nil {
				return FigureResult{}, err
			}
			s, title, err := RecoveryTimeline(w, ResilienceProfile(w, o), h, ho)
			return FigureResult{Title: title, Series: s}, err
		},
	},
	{
		Name:   "figscale",
		Title:  "Scaling: sharded single-run service quality over time",
		XLabel: "t (s)",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			_, fig, err := ScaleRun(w, o)
			return fig, err
		},
	},
	{
		Name:   "figdetect",
		Title:  "Failure detection latency: oracle vs timeout vs phi-accrual",
		XLabel: "heartbeat interval (s)",
		Run: func(w *World, o RunOptions) (FigureResult, error) {
			s, title, err := DetectionLatency(w, detectIntervals)
			return FigureResult{Title: title, Series: s}, err
		},
	},
}

// Figures returns the registered figures in paper order. The slice is a
// copy; callers may reorder it freely.
func Figures() []Figure {
	out := make([]Figure, len(figures))
	copy(out, figures)
	return out
}

// FigureNames returns the canonical figure names in paper order.
func FigureNames() []string {
	out := make([]string, len(figures))
	for i, f := range figures {
		out[i] = f.Name
	}
	return out
}

// FigureByName looks a figure up by canonical name ("fig9a") or bare paper
// label ("9a", case-insensitive).
func FigureByName(name string) (Figure, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	if !strings.HasPrefix(key, "fig") {
		key = "fig" + key
	}
	for _, f := range figures {
		if f.Name == key {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiment: unknown figure %q (have %s)",
		name, strings.Join(FigureNames(), ", "))
}

// SelectFigures resolves a comma-separated selection ("fig9a,10a", or "all"
// / "" for every figure) into registry order, deduplicating repeats.
func SelectFigures(selection string) ([]Figure, error) {
	sel := strings.TrimSpace(selection)
	if sel == "" || strings.EqualFold(sel, "all") {
		return Figures(), nil
	}
	rank := make(map[string]int, len(figures))
	for i, f := range figures {
		rank[f.Name] = i
	}
	seen := make(map[string]bool)
	var out []Figure
	for _, part := range strings.Split(sel, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		f, err := FigureByName(part)
		if err != nil {
			return nil, err
		}
		if !seen[f.Name] {
			seen[f.Name] = true
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: empty figure selection %q", selection)
	}
	sort.Slice(out, func(a, b int) bool { return rank[out[a].Name] < rank[out[b].Name] })
	return out, nil
}
