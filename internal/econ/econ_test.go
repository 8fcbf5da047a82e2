package econ

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func defaultParams() Params {
	// R = 1 Mbps stream (800kbps video + overhead), Λ = 0.1 Mbps updates,
	// c_c = 1.0 per unit saved, c_s = 0.3 per unit rewarded.
	return Params{RewardPerUnit: 0.3, RevenuePerUnit: 1.0, StreamRate: 1.0, UpdateRate: 0.1}
}

func TestParamsValidate(t *testing.T) {
	if err := defaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{RewardPerUnit: -1, RevenuePerUnit: 1, StreamRate: 1},
		{RewardPerUnit: 1, RevenuePerUnit: -1, StreamRate: 1},
		{RewardPerUnit: 1, RevenuePerUnit: 1, StreamRate: 0},
		{RewardPerUnit: 1, RevenuePerUnit: 1, StreamRate: 1, UpdateRate: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

func TestSupernodeValidate(t *testing.T) {
	good := Supernode{Capacity: 10, Utilization: 0.5, Cost: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Supernode{
		{Capacity: -1, Utilization: 0.5},
		{Capacity: 1, Utilization: -0.1},
		{Capacity: 1, Utilization: 1.1},
		{Capacity: 1, Utilization: 0.5, Cost: -1},
		{Capacity: 1, Utilization: 0.5, CoverageGain: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad supernode %d accepted", i)
		}
	}
}

// TestValidateRefusesNonFinite: NaN and ±Inf in any float field are refused
// by the field's name. A comparison with NaN is false, so a range check alone
// let NaN through every field and +Inf through most.
func TestValidateRefusesNonFinite(t *testing.T) {
	params := map[string]func(*Params, float64){
		"reward c_s":    func(p *Params, v float64) { p.RewardPerUnit = v },
		"revenue c_c":   func(p *Params, v float64) { p.RevenuePerUnit = v },
		"stream rate R": func(p *Params, v float64) { p.StreamRate = v },
		"update rate Λ": func(p *Params, v float64) { p.UpdateRate = v },
	}
	supernode := map[string]func(*Supernode, float64){
		"capacity":    func(s *Supernode, v float64) { s.Capacity = v },
		"utilization": func(s *Supernode, v float64) { s.Utilization = v },
		"cost":        func(s *Supernode, v float64) { s.Cost = v },
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, set := range params {
			p := defaultParams()
			set(&p, v)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("Params with %s = %v: err %v, want one naming %q", name, v, err, name)
			}
		}
		for name, set := range supernode {
			s := Supernode{Capacity: 10, Utilization: 0.5, Cost: 1}
			set(&s, v)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("Supernode with %s = %v: err %v, want one naming %q", name, v, err, name)
			}
		}
	}
}

// TestContributorProfitEq1 pins Eq. 1: P_s(j) = c_s·c_j·u_j − cost_j.
func TestContributorProfitEq1(t *testing.T) {
	s := Supernode{Capacity: 20, Utilization: 0.8, Cost: 3}
	got := ContributorProfit(0.5, s)
	want := 0.5*20*0.8 - 3 // = 5
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("P_s = %v, want %v", got, want)
	}
}

func TestWillContributeThreshold(t *testing.T) {
	s := Supernode{Capacity: 20, Utilization: 0.8, Cost: 3} // profit 5 at c_s=0.5
	if !WillContribute(0.5, s, 4.9) {
		t.Fatal("profitable contribution rejected")
	}
	if WillContribute(0.5, s, 5.0) {
		t.Fatal("threshold-equal profit accepted (must be strictly greater)")
	}
	// Raising the reward rate c_s turns reluctant contributors around —
	// the incentive mechanism the paper relies on.
	if WillContribute(0.1, s, 0) {
		t.Fatal("lossmaking contribution accepted")
	}
	if !WillContribute(1.0, s, 0) {
		t.Fatal("high reward did not motivate contribution")
	}
}

// TestBandwidthReductionEq2 pins Eq. 2: B_r = n·R − Λ·m.
func TestBandwidthReductionEq2(t *testing.T) {
	p := defaultParams()
	got := p.BandwidthReduction(1000, 200)
	want := 1000*1.0 - 0.1*200 // = 980
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("B_r = %v, want %v", got, want)
	}
}

func TestFewerSupernodesSaveMore(t *testing.T) {
	// Eq. 3's observation: for fixed n, smaller m means higher saving.
	p := defaultParams()
	if p.BandwidthReduction(1000, 100) <= p.BandwidthReduction(1000, 200) {
		t.Fatal("fewer supernodes did not increase bandwidth reduction")
	}
}

// TestProviderSavingEq3 pins Eq. 3 with its Eq. 4-5 constraints.
func TestProviderSavingEq3(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{
		{Capacity: 100, Utilization: 1.0},
		{Capacity: 50, Utilization: 0.8},
	} // B_s = 140
	got, err := p.ProviderSaving(120, sns)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0*(120*1.0-0.1*2) - 0.3*140 // 119.8 - 42 = 77.8
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("C_g = %v, want %v", got, want)
	}
}

func TestProviderSavingEnforcesEq4(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Capacity: 10, Utilization: 1.0}}
	if _, err := p.ProviderSaving(100, sns); err == nil {
		t.Fatal("Eq. 4 capacity violation accepted")
	}
}

func TestProviderSavingEnforcesEq5(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Capacity: 1000, Utilization: 1.5}}
	if _, err := p.ProviderSaving(100, sns); err == nil {
		t.Fatal("Eq. 5 utilization violation accepted")
	}
}

// TestMarginalGainEq6 pins Eq. 6: G_s = c_c(ν·R − Λ) − c_s·c_j·u_j.
func TestMarginalGainEq6(t *testing.T) {
	p := defaultParams()
	s := Supernode{Capacity: 10, Utilization: 0.9, CoverageGain: 8}
	got := p.MarginalGain(s)
	want := 1.0*(8*1.0-0.1) - 0.3*9 // 7.9 - 2.7 = 5.2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("G_s = %v, want %v", got, want)
	}
	if !p.WorthDeploying(s) {
		t.Fatal("positive-gain supernode not worth deploying")
	}
	s.CoverageGain = 0
	if p.WorthDeploying(s) {
		t.Fatal("zero-coverage supernode deployed")
	}
}

func TestSupportedPlayersEq4(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Capacity: 7, Utilization: 0.5}} // 3.5 units / R=1
	if got := p.SupportedPlayers(sns); got != 3 {
		t.Fatalf("supported = %d, want 3", got)
	}
}

func TestPlanDeploymentPicksFewest(t *testing.T) {
	p := defaultParams()
	candidates := []Supernode{
		{Capacity: 2, Utilization: 1},
		{Capacity: 50, Utilization: 1},
		{Capacity: 3, Utilization: 1},
		{Capacity: 40, Utilization: 1},
	}
	plan, err := p.PlanDeployment(80, candidates)
	if err != nil {
		t.Fatal(err)
	}
	// The two big nodes (90 units) cover 80 players; small ones unneeded.
	if len(plan.Chosen) != 2 {
		t.Fatalf("chose %d supernodes, want 2: %v", len(plan.Chosen), plan.Chosen)
	}
	seen := map[int]bool{}
	for _, idx := range plan.Chosen {
		seen[idx] = true
	}
	if !seen[1] || !seen[3] {
		t.Fatalf("wrong supernodes chosen: %v", plan.Chosen)
	}
	if plan.Supported < 80 {
		t.Fatalf("plan supports %d < target 80", plan.Supported)
	}
	if plan.Saving <= 0 {
		t.Fatalf("plan saving %v not positive", plan.Saving)
	}
}

func TestPlanDeploymentInsufficient(t *testing.T) {
	p := defaultParams()
	if _, err := p.PlanDeployment(100, []Supernode{{Capacity: 5, Utilization: 1}}); err == nil {
		t.Fatal("infeasible plan accepted")
	}
}

func TestPlanDeploymentRejectsInvalidCandidate(t *testing.T) {
	p := defaultParams()
	if _, err := p.PlanDeployment(1, []Supernode{{Capacity: 5, Utilization: 2}}); err == nil {
		t.Fatal("invalid candidate accepted")
	}
}

func TestPlanDeploymentSavingBeatsLargerSelections(t *testing.T) {
	// Property: adding an unneeded supernode to a feasible plan never
	// increases the saving (it costs Λ updates and c_s rewards).
	p := defaultParams()
	f := func(caps []uint8) bool {
		candidates := make([]Supernode, 0, len(caps)+2)
		candidates = append(candidates,
			Supernode{Capacity: 100, Utilization: 1},
			Supernode{Capacity: 80, Utilization: 1})
		for _, c := range caps {
			candidates = append(candidates, Supernode{Capacity: float64(c%50) + 1, Utilization: 1})
		}
		plan, err := p.PlanDeployment(90, candidates)
		if err != nil {
			return true // infeasible inputs are out of scope
		}
		all, err := p.ProviderSaving(90, candidates)
		if err != nil {
			return true
		}
		return plan.Saving >= all-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
