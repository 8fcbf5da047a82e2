// Package econ implements CloudFog's economic model (paper §III-A):
// the supernode contributor's profit (Eq. 1), the cloud bandwidth reduction
// from fog streaming (Eq. 2), the game service provider's saved-cost
// objective with its capacity constraints (Eqs. 3-5), and the marginal gain
// of deploying one more supernode (Eq. 6). It also provides a greedy
// deployment planner derived from the paper's observation that, for a fixed
// coverage n, fewer supernodes mean higher savings.
//
// Bandwidth quantities are in abstract "bandwidth units" (the paper never
// fixes one); use any consistent unit such as Mbit/s.
package econ

import (
	"fmt"
	"math"
	"sort"
)

// Params holds the market constants of the model.
type Params struct {
	// RewardPerUnit is c_s: the reward paid per bandwidth unit a
	// supernode contributes.
	RewardPerUnit float64
	// RevenuePerUnit is c_c: the provider's value of each server
	// bandwidth unit saved.
	RevenuePerUnit float64
	// StreamRate is R: the game-video streaming rate per player.
	StreamRate float64
	// UpdateRate is Λ: the cloud→supernode update bandwidth per
	// supernode (per player action, aggregated).
	UpdateRate float64
}

// Validate reports parameter errors. Each check is written so that NaN fails
// it (every comparison with NaN is false), and +Inf is refused with it.
func (p Params) Validate() error {
	switch {
	case !(p.RewardPerUnit >= 0) || math.IsInf(p.RewardPerUnit, 1):
		return fmt.Errorf("econ: reward c_s %v, want a finite number ≥ 0", p.RewardPerUnit)
	case !(p.RevenuePerUnit >= 0) || math.IsInf(p.RevenuePerUnit, 1):
		return fmt.Errorf("econ: revenue c_c %v, want a finite number ≥ 0", p.RevenuePerUnit)
	case !(p.StreamRate > 0) || math.IsInf(p.StreamRate, 1):
		return fmt.Errorf("econ: stream rate R %v, want a finite number > 0", p.StreamRate)
	case !(p.UpdateRate >= 0) || math.IsInf(p.UpdateRate, 1):
		return fmt.Errorf("econ: update rate Λ %v, want a finite number ≥ 0", p.UpdateRate)
	}
	return nil
}

// Supernode describes one contributed machine for economic purposes.
type Supernode struct {
	// Capacity is c_j: upload capacity in bandwidth units.
	Capacity float64
	// Utilization is u_j in [0,1]: the used fraction of that capacity
	// (Eq. 5's constraint).
	Utilization float64
	// Cost is cost_j: the contributor's running cost, in the same unit
	// as c_s rewards.
	Cost float64
	// CoverageGain is ν: how many new players this supernode's
	// deployment would newly cover (used by Eq. 6).
	CoverageGain int
}

// Validate reports supernode description errors, refusing NaN and ±Inf
// the way Params.Validate does.
func (s Supernode) Validate() error {
	switch {
	case !(s.Capacity >= 0) || math.IsInf(s.Capacity, 1):
		return fmt.Errorf("econ: capacity %v, want a finite number ≥ 0", s.Capacity)
	case !(s.Utilization >= 0 && s.Utilization <= 1):
		return fmt.Errorf("econ: utilization %v outside [0,1]", s.Utilization)
	case !(s.Cost >= 0) || math.IsInf(s.Cost, 1):
		return fmt.Errorf("econ: cost %v, want a finite number ≥ 0", s.Cost)
	case s.CoverageGain < 0:
		return fmt.Errorf("econ: negative coverage gain %d", s.CoverageGain)
	}
	return nil
}

// Contribution returns c_j × u_j: the bandwidth this supernode contributes.
func (s Supernode) Contribution() float64 { return s.Capacity * s.Utilization }

// ContributorProfit implements Eq. 1: P_s(j) = c_s·c_j·u_j − cost_j.
func ContributorProfit(cs float64, s Supernode) float64 {
	return cs*s.Contribution() - s.Cost
}

// WillContribute reports whether a contributor with the given profit
// threshold is motivated to deploy the supernode (P_s(j) > threshold).
func WillContribute(cs float64, s Supernode, threshold float64) bool {
	return ContributorProfit(cs, s) > threshold
}

// TotalContribution returns B_s = Σ c_j·u_j over the supernodes.
func TotalContribution(sns []Supernode) float64 {
	total := 0.0
	for _, s := range sns {
		total += s.Contribution()
	}
	return total
}

// BandwidthReduction implements Eq. 2: B_r = n·R − Λ·m, the cloud bandwidth
// saved when n players are served by m supernodes instead of the cloud.
func (p Params) BandwidthReduction(n, m int) float64 {
	return float64(n)*p.StreamRate - p.UpdateRate*float64(m)
}

// SupportedPlayers returns the largest n satisfying the capacity constraint
// of Eq. 4: Σ c_j·u_j ≥ n·R.
func (p Params) SupportedPlayers(sns []Supernode) int {
	return int(TotalContribution(sns) / p.StreamRate)
}

// ProviderSaving implements Eq. 3's objective for a given deployment:
// C_g = c_c·B_r − c_s·B_s, where n players are served by the m = len(sns)
// supernodes. It returns an error when the deployment violates the
// constraints of Eqs. 4-5 (insufficient contribution, or utilization out of
// range).
func (p Params) ProviderSaving(n int, sns []Supernode) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	for i, s := range sns {
		if err := s.Validate(); err != nil {
			return 0, fmt.Errorf("supernode %d: %w", i, err)
		}
	}
	bs := TotalContribution(sns)
	if bs < float64(n)*p.StreamRate {
		return 0, fmt.Errorf("econ: contribution %v < required %v for %d players (Eq. 4)",
			bs, float64(n)*p.StreamRate, n)
	}
	br := p.BandwidthReduction(n, len(sns))
	return p.RevenuePerUnit*br - p.RewardPerUnit*bs, nil
}

// MarginalGain implements Eq. 6: G_s(j) = c_c(ν·R − Λ) − c_s·c_j·u_j, the
// provider's net gain from deploying supernode s that newly covers
// s.CoverageGain players.
func (p Params) MarginalGain(s Supernode) float64 {
	return p.RevenuePerUnit*(float64(s.CoverageGain)*p.StreamRate-p.UpdateRate) -
		p.RewardPerUnit*s.Contribution()
}

// WorthDeploying reports whether Eq. 6's gain is positive: the bandwidth
// saved from newly covered players exceeds the supernode's reward cost.
func (p Params) WorthDeploying(s Supernode) bool { return p.MarginalGain(s) > 0 }

// Plan is the result of planning a supernode deployment.
type Plan struct {
	// Chosen indexes the selected supernodes in the candidate slice.
	Chosen []int
	// Supported is the number of players the selection can stream to.
	Supported int
	// Saving is the provider's C_g for serving exactly `target` players
	// with the selection.
	Saving float64
}

// PlanDeployment selects supernodes from candidates to support target
// players while maximizing provider saving. Following Eq. 3's observation
// that fewer supernodes save more (each costs Λ update bandwidth and its
// reward), it greedily takes the highest-contribution candidates until the
// Eq. 4 constraint is met. It returns an error if the candidates cannot
// support the target at all, or if the target is below one player.
func (p Params) PlanDeployment(target int, candidates []Supernode) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if target < 1 {
		return Plan{}, fmt.Errorf("econ: target of %d players, want at least 1", target)
	}
	for i, s := range candidates {
		if err := s.Validate(); err != nil {
			return Plan{}, fmt.Errorf("candidate %d: %w", i, err)
		}
	}
	order := make([]int, len(candidates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return candidates[order[a]].Contribution() > candidates[order[b]].Contribution()
	})
	need := float64(target) * p.StreamRate
	var plan Plan
	acc := 0.0
	for _, idx := range order {
		if acc >= need {
			break
		}
		c := candidates[idx]
		if c.Contribution() <= 0 {
			break // sorted: the rest contribute nothing
		}
		plan.Chosen = append(plan.Chosen, idx)
		acc += c.Contribution()
	}
	if acc < need {
		return Plan{}, fmt.Errorf("econ: candidates support only %d of %d target players",
			int(acc/p.StreamRate), target)
	}
	chosen := make([]Supernode, len(plan.Chosen))
	for i, idx := range plan.Chosen {
		chosen[i] = candidates[idx]
	}
	plan.Supported = p.SupportedPlayers(chosen)
	saving, err := p.ProviderSaving(target, chosen)
	if err != nil {
		return Plan{}, err
	}
	plan.Saving = saving
	return plan, nil
}
