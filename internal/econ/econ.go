// Package econ implements CloudFog's economic model (paper §III-A):
// the supernode contributor's profit (Eq. 1), the cloud bandwidth reduction
// from fog streaming (Eq. 2), the game service provider's saved-cost
// objective with its capacity constraints (Eqs. 3-5), and the marginal gain
// of deploying one more supernode (Eq. 6).
//
// The package is the equations over values; experiment.EconomicsVsReward
// measures those values on a fog that ran. Bandwidth quantities share one
// unit (the paper never fixes one; the fog measures bits/s).
package econ

import (
	"fmt"
	"math"
)

// Params holds the market constants of the model.
type Params struct {
	// RewardPerUnit is c_s: the reward paid per bandwidth unit a
	// supernode contributes.
	RewardPerUnit float64
	// RevenuePerUnit is c_c: the provider's value of each server
	// bandwidth unit saved.
	RevenuePerUnit float64
	// UpdateRate is Λ: the cloud→supernode update bandwidth per
	// supernode (per player action, aggregated).
	UpdateRate float64
}

// finite reports whether v is a finite number ≥ 0; NaN fails it (every
// comparison with NaN is false), and +Inf is refused with it.
func finite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Validate reports parameter errors, refusing NaN and ±Inf.
func (p Params) Validate() error {
	switch {
	case !finite(p.RewardPerUnit):
		return fmt.Errorf("econ: reward c_s %v, want a finite number ≥ 0", p.RewardPerUnit)
	case !finite(p.RevenuePerUnit):
		return fmt.Errorf("econ: revenue c_c %v, want a finite number ≥ 0", p.RevenuePerUnit)
	case !finite(p.UpdateRate):
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
	// Streamed is Σ R over the players this supernode serves: its share
	// of Eq. 2's n·R.
	Streamed float64
	// NewlyCovered is ν·R: the stream rate of the players this supernode
	// brings within their latency requirement and the cloud alone did not
	// (Eq. 6).
	NewlyCovered float64
}

// Validate reports supernode description errors, refusing NaN and ±Inf
// the way Params.Validate does.
func (s Supernode) Validate() error {
	switch {
	case !finite(s.Capacity):
		return fmt.Errorf("econ: capacity %v, want a finite number ≥ 0", s.Capacity)
	case !(s.Utilization >= 0 && s.Utilization <= 1):
		return fmt.Errorf("econ: utilization %v outside [0,1]", s.Utilization)
	case !finite(s.Cost):
		return fmt.Errorf("econ: cost %v, want a finite number ≥ 0", s.Cost)
	case !finite(s.Streamed):
		return fmt.Errorf("econ: streamed %v, want a finite number ≥ 0", s.Streamed)
	case !finite(s.NewlyCovered):
		return fmt.Errorf("econ: newly covered %v, want a finite number ≥ 0", s.NewlyCovered)
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
// saved when the supernodes stream to their players instead of the cloud,
// summed per supernode as Σ(Streamed − Λ).
func (p Params) BandwidthReduction(sns []Supernode) float64 {
	total := 0.0
	for _, s := range sns {
		total += s.Streamed - p.UpdateRate
	}
	return total
}

// ProviderSaving implements Eq. 3's objective for a given deployment:
// C_g = c_c·B_r − c_s·B_s over the m = len(sns) supernodes. It returns an
// error when the deployment violates the constraints of Eqs. 4-5
// (contribution below what the supernodes stream, or utilization out of
// range).
func (p Params) ProviderSaving(sns []Supernode) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	need := 0.0
	for i, s := range sns {
		if err := s.Validate(); err != nil {
			return 0, fmt.Errorf("supernode %d: %w", i, err)
		}
		need += s.Streamed
	}
	bs := TotalContribution(sns)
	if bs < need {
		return 0, fmt.Errorf("econ: contribution %v < streamed %v (Eq. 4)", bs, need)
	}
	return p.RevenuePerUnit*p.BandwidthReduction(sns) - p.RewardPerUnit*bs, nil
}

// MarginalGain implements Eq. 6: G_s(j) = c_c(ν·R − Λ) − c_s·c_j·u_j, the
// provider's net gain from deploying supernode s, whose newly covered
// players stream s.NewlyCovered.
func (p Params) MarginalGain(s Supernode) float64 {
	return p.RevenuePerUnit*(s.NewlyCovered-p.UpdateRate) - p.RewardPerUnit*s.Contribution()
}

// WorthDeploying reports whether Eq. 6's gain is positive: the bandwidth
// saved from newly covered players exceeds the supernode's reward cost.
func (p Params) WorthDeploying(s Supernode) bool { return p.MarginalGain(s) > 0 }
