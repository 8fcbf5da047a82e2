// Command cloudfog-econ explores CloudFog's economic model (paper §III-A,
// Eqs. 1-6): contributor incentives, the provider's saved-cost objective,
// and marginal deployment decisions, over a synthetic candidate pool.
//
// Usage:
//
//	cloudfog-econ
//	cloudfog-econ -reward 0.3 -revenue 1.0 -stream 1.3 -update 0.05 -target 500
package main

import (
	"flag"
	"fmt"
	"os"

	"cloudfog/internal/econ"
	"cloudfog/internal/sim"
)

var (
	rewardFlag     = flag.Float64("reward", 0.25, "c_s: reward per contributed bandwidth unit")
	revenueFlag    = flag.Float64("revenue", 1.0, "c_c: provider value per saved bandwidth unit")
	streamFlag     = flag.Float64("stream", 1.3, "R: stream bandwidth per player (units)")
	updateFlag     = flag.Float64("update", 0.05, "Λ: cloud→supernode update bandwidth (units)")
	targetFlag     = flag.Int("target", 500, "players the provider wants fog-served")
	candidatesFlag = flag.Int("candidates", 200, "size of the candidate supernode pool")
	seedFlag       = flag.Int64("seed", 7, "candidate pool seed")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfog-econ:", err)
		os.Exit(1)
	}
}

func run() error {
	params := econ.Params{
		RewardPerUnit:  *rewardFlag,
		RevenuePerUnit: *revenueFlag,
		StreamRate:     *streamFlag,
		UpdateRate:     *updateFlag,
	}
	if err := params.Validate(); err != nil {
		return err
	}
	if *candidatesFlag < 0 {
		return fmt.Errorf("-candidates %d: the pool size cannot be negative", *candidatesFlag)
	}

	rng := sim.NewRand(*seedFlag)
	candidates := make([]econ.Supernode, *candidatesFlag)
	for i := range candidates {
		candidates[i] = econ.Supernode{
			Capacity:     rng.CapacityPareto() * params.StreamRate,
			Utilization:  0.5 + 0.5*rng.Float64(),
			Cost:         0.3 + 1.2*rng.Float64(),
			CoverageGain: 1 + rng.Intn(8),
		}
	}

	fmt.Printf("market: c_s=%.2f c_c=%.2f R=%.2f Λ=%.2f, %d candidates (Pareto capacities)\n\n",
		params.RewardPerUnit, params.RevenuePerUnit, params.StreamRate,
		params.UpdateRate, len(candidates))

	fmt.Println("== contributor incentives (Eq. 1: P_s = c_s·c_j·u_j − cost_j) ==")
	fmt.Println("reward c_s   willing contributors   total contribution B_s")
	for _, cs := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50} {
		willing := 0
		contribution := 0.0
		for _, c := range candidates {
			if econ.WillContribute(cs, c, 0) {
				willing++
				contribution += c.Contribution()
			}
		}
		fmt.Printf("  %.2f       %4d / %-4d            %8.1f units\n",
			cs, willing, len(candidates), contribution)
	}

	fmt.Println("\n== provider planning (Eqs. 2-5) ==")
	plan, err := params.PlanDeployment(*targetFlag, candidates)
	if err != nil {
		return err
	}
	fmt.Printf("target %d players: deploy %d supernodes (m minimized per Eq. 3), support %d\n",
		*targetFlag, len(plan.Chosen), plan.Supported)
	fmt.Printf("bandwidth reduction B_r = %.1f units (Eq. 2)\n",
		params.BandwidthReduction(*targetFlag, len(plan.Chosen)))
	fmt.Printf("provider saving   C_g = %.1f units (Eq. 3)\n", plan.Saving)

	fmt.Println("\n== marginal deployments (Eq. 6: G_s = c_c(ν·R − Λ) − c_s·c_j·u_j) ==")
	deploy, skip := 0, 0
	for _, c := range candidates {
		if params.WorthDeploying(c) {
			deploy++
		} else {
			skip++
		}
	}
	fmt.Printf("of %d candidates, %d are individually worth deploying, %d are not\n",
		len(candidates), deploy, skip)
	return nil
}
