package econ

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func defaultParams() Params {
	// Λ = 0.1 Mbps updates, c_c = 1.0 per unit saved, c_s = 0.3 per unit
	// rewarded.
	return Params{RewardPerUnit: 0.3, RevenuePerUnit: 1.0, UpdateRate: 0.1}
}

func TestParamsValidate(t *testing.T) {
	if err := defaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{RewardPerUnit: -1, RevenuePerUnit: 1},
		{RewardPerUnit: 1, RevenuePerUnit: -1},
		{RewardPerUnit: 1, RevenuePerUnit: 1, UpdateRate: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

func TestSupernodeValidate(t *testing.T) {
	good := Supernode{Capacity: 10, Utilization: 0.5, Cost: 1, Streamed: 4, NewlyCovered: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Supernode{
		{Capacity: -1, Utilization: 0.5},
		{Capacity: 1, Utilization: -0.1},
		{Capacity: 1, Utilization: 1.1},
		{Capacity: 1, Utilization: 0.5, Cost: -1},
		{Capacity: 1, Utilization: 0.5, Streamed: -1},
		{Capacity: 1, Utilization: 0.5, NewlyCovered: -1},
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
		"update rate Λ": func(p *Params, v float64) { p.UpdateRate = v },
	}
	supernode := map[string]func(*Supernode, float64){
		"capacity":      func(s *Supernode, v float64) { s.Capacity = v },
		"utilization":   func(s *Supernode, v float64) { s.Utilization = v },
		"cost":          func(s *Supernode, v float64) { s.Cost = v },
		"streamed":      func(s *Supernode, v float64) { s.Streamed = v },
		"newly covered": func(s *Supernode, v float64) { s.NewlyCovered = v },
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
			s := Supernode{Capacity: 10, Utilization: 0.5, Cost: 1, Streamed: 4, NewlyCovered: 2}
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

// TestBandwidthReductionEq2 pins Eq. 2: B_r = n·R − Λ·m, summed per
// supernode as Σ(Streamed − Λ).
func TestBandwidthReductionEq2(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Streamed: 600}, {Streamed: 300}, {Streamed: 100}}
	got := p.BandwidthReduction(sns)
	want := 1000 - 0.1*3 // = 999.7
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("B_r = %v, want %v", got, want)
	}
}

// TestFewerSupernodesSaveMore is Eq. 3's observation that, for a fixed n·R,
// fewer supernodes save more: adding a supernode that streams nothing lowers
// C_g by exactly c_c·Λ + c_s·c_j·u_j, its update cost and its reward.
func TestFewerSupernodesSaveMore(t *testing.T) {
	p := defaultParams()
	f := func(caps []uint8, idleCap, idleUtil uint8) bool {
		sns := []Supernode{{Capacity: 100, Utilization: 1, Streamed: 90}}
		for _, c := range caps {
			sns = append(sns, Supernode{Capacity: float64(c%50) + 1, Utilization: 1, Streamed: float64(c % 50)})
		}
		idle := Supernode{Capacity: float64(idleCap), Utilization: float64(idleUtil) / 255}
		base, err := p.ProviderSaving(sns)
		if err != nil {
			t.Fatal(err)
		}
		more, err := p.ProviderSaving(append(sns, idle))
		if err != nil {
			t.Fatal(err)
		}
		drop := p.RevenuePerUnit*p.UpdateRate + p.RewardPerUnit*idle.Contribution()
		return more < base && math.Abs(base-more-drop) <= 1e-9*math.Max(1, math.Abs(base))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanDeploymentSavingBeatsLargerSelections: carrying the same n·R on a
// larger selection of supernodes never saves more than the smallest plan
// that covers it, since each extra supernode costs Λ updates and c_s rewards.
func TestPlanDeploymentSavingBeatsLargerSelections(t *testing.T) {
	p := defaultParams()
	const demand = 90.0
	f := func(caps []uint8) bool {
		plan := []Supernode{{Capacity: 100, Utilization: 1, Streamed: demand}}
		all := []Supernode{{Capacity: 100, Utilization: 1}, {Capacity: 80, Utilization: 1}}
		left := demand
		for _, c := range caps {
			s := Supernode{Capacity: float64(c%50) + 1, Utilization: 1}
			s.Streamed = math.Min(s.Capacity, left)
			left -= s.Streamed
			all = append(all, s)
		}
		all[0].Streamed = left
		want, err := p.ProviderSaving(plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.ProviderSaving(all)
		if err != nil {
			t.Fatal(err)
		}
		return want >= got-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestProviderSavingEq3 pins Eq. 3 with its Eq. 4-5 constraints.
func TestProviderSavingEq3(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{
		{Capacity: 100, Utilization: 1.0, Streamed: 80},
		{Capacity: 50, Utilization: 0.8, Streamed: 40},
	} // B_s = 140, n·R = 120
	got, err := p.ProviderSaving(sns)
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0*(120-0.1*2) - 0.3*140 // 119.8 - 42 = 77.8
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("C_g = %v, want %v", got, want)
	}
}

func TestProviderSavingEnforcesEq4(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Capacity: 10, Utilization: 1.0, Streamed: 100}}
	if _, err := p.ProviderSaving(sns); err == nil {
		t.Fatal("Eq. 4 capacity violation accepted")
	}
}

func TestProviderSavingEnforcesEq5(t *testing.T) {
	p := defaultParams()
	sns := []Supernode{{Capacity: 1000, Utilization: 1.5, Streamed: 100}}
	if _, err := p.ProviderSaving(sns); err == nil {
		t.Fatal("Eq. 5 utilization violation accepted")
	}
}

// TestMarginalGainEq6 pins Eq. 6: G_s = c_c(ν·R − Λ) − c_s·c_j·u_j.
func TestMarginalGainEq6(t *testing.T) {
	p := defaultParams()
	s := Supernode{Capacity: 10, Utilization: 0.9, Streamed: 9, NewlyCovered: 8}
	got := p.MarginalGain(s)
	want := 1.0*(8-0.1) - 0.3*9 // 7.9 - 2.7 = 5.2
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("G_s = %v, want %v", got, want)
	}
	if !p.WorthDeploying(s) {
		t.Fatal("positive-gain supernode not worth deploying")
	}
	s.NewlyCovered = 0
	if p.WorthDeploying(s) {
		t.Fatal("zero-coverage supernode deployed")
	}
}
