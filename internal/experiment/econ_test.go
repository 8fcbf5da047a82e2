package experiment

import (
	"math"
	"testing"

	"cloudfog/internal/core"
	"cloudfog/internal/econ"
)

// cloudBandwidth is the cloud's video egress with the first n players joined
// to sys.
func cloudBandwidth(w *World, sys func() (*core.Fog, error), n int) (int64, error) {
	f, err := sys()
	if err != nil {
		return 0, err
	}
	players := w.JoinAll(f, n)
	defer w.LeaveAll(f, players)
	return f.CloudBandwidth(), nil
}

// TestEq2IsTheFogBandwidthGap: Eq. 2 over every loaded supernode, as figecon
// reads them, is exactly what Figure 7 measures bottom-up — the Cloud
// baseline's egress less CloudFog/B's.
func TestEq2IsTheFogBandwidthGap(t *testing.T) {
	w := testWorld(t)
	p := econ.Params{UpdateRate: float64(w.Cfg.Core.UpdateBandwidth)}
	for _, n := range []int{300, 800, 1500} {
		sns, err := fogEconomics(w, n)
		if err != nil {
			t.Fatal(err)
		}
		cloud, err := cloudBandwidth(w, func() (*core.Fog, error) { return w.NewCloud(w.Cfg.Datacenters) }, n)
		if err != nil {
			t.Fatal(err)
		}
		fog, err := cloudBandwidth(w, func() (*core.Fog, error) { return w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes) }, n)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := p.BandwidthReduction(sns), float64(cloud-fog); got != want {
			t.Errorf("%d players, %d loaded supernodes: B_r = %v, want Cloud − CloudFog/B = %v",
				n, len(sns), got, want)
		}
	}
}

// TestFigEconShape: the incentive sweep on a fog. A higher reward never
// leaves fewer owners willing; the provider's saving peaks strictly inside
// the sweep (too low a reward deploys few supernodes, too high pays too
// much for them); Eq. 6 keeps only willing supernodes; and once every loaded
// supernode is willing, B_s is the uplink its fog-served players take.
func TestFigEconShape(t *testing.T) {
	w := testWorld(t)
	series, err := EconomicsVsReward(w, rewards)
	if err != nil {
		t.Fatal(err)
	}
	willing, bs, cg, worth := series[0], series[1], series[2], series[3]

	fog, err := w.NewFog(w.Cfg.Datacenters, w.Cfg.Supernodes)
	if err != nil {
		t.Fatal(err)
	}
	players := w.JoinAll(fog, w.Cfg.Players)
	loaded, fogServed := 0, fog.Census(players).FogServed
	for _, sn := range fog.Supernodes() {
		if sn.Load() > 0 {
			loaded++
		}
	}
	w.LeaveAll(fog, players)

	peak := 0.0
	for i, cs := range rewards {
		if i > 0 && willing.Points[i].Y < willing.Points[i-1].Y {
			t.Errorf("c_s=%v: %v willing, fewer than the %v at c_s=%v",
				cs, willing.Points[i].Y, willing.Points[i-1].Y, rewards[i-1])
		}
		if worth.Points[i].Y > willing.Points[i].Y {
			t.Errorf("c_s=%v: Eq. 6 deploys %v of %v willing", cs, worth.Points[i].Y, willing.Points[i].Y)
		}
		peak = max(peak, cg.Points[i].Y)
		if cs >= 0.4 {
			if got := int(willing.Points[i].Y); got != loaded {
				t.Errorf("c_s=%v: %d willing of %d loaded supernodes", cs, got, loaded)
			}
			want := float64(w.Cfg.Core.UplinkPerSlot) * float64(fogServed) / 1e6
			if got := bs.Points[i].Y; math.Abs(got-want) > 1e-9*want {
				t.Errorf("c_s=%v: B_s = %v Mbit/s, want UplinkPerSlot × %d fog-served = %v",
					cs, got, fogServed, want)
			}
		}
	}
	if first, last := cg.Points[0].Y, cg.Points[len(rewards)-1].Y; !(peak > first && peak > last) {
		t.Errorf("C_g peaks at %v, not above both ends of the sweep (%v, %v)", peak, first, last)
	}
}
