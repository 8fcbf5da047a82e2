package geo

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/sim"
)

func TestDistanceTo(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := b.DistanceTo(a); d != 5 {
		t.Fatalf("distance not symmetric: %v", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		// Bound inputs to keep float error manageable.
		bound := func(v float64) float64 { return math.Mod(math.Abs(v), 5000) }
		a := Point{bound(ax), bound(ay)}
		b := Point{bound(bx), bound(by)}
		c := Point{bound(cx), bound(cy)}
		ab, ba := a.DistanceTo(b), b.DistanceTo(a)
		if ab != ba || ab < 0 {
			return false
		}
		// Triangle inequality with float tolerance.
		return a.DistanceTo(c) <= ab+b.DistanceTo(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegionContainsAndClamp(t *testing.T) {
	rg := USRegion()
	if !rg.Contains(rg.Center()) {
		t.Fatal("region does not contain its center")
	}
	out := Point{-10, 99999}
	in := rg.Clamp(out)
	if !rg.Contains(in) {
		t.Fatalf("Clamp produced point outside region: %v", in)
	}
	if in.X != 0 || in.Y != rg.Height {
		t.Fatalf("Clamp = %v, want (0, %v)", in, rg.Height)
	}
}

func TestClusterPlacerStaysInRegion(t *testing.T) {
	r := sim.NewRand(2)
	cp := DefaultUSPlacer()
	for i := 0; i < 10000; i++ {
		if p := cp.Place(r); !cp.Region.Contains(p) {
			t.Fatalf("cluster placement outside region: %v", p)
		}
	}
}

func TestClusterPlacerWeights(t *testing.T) {
	// Nodes should appear near the heaviest cluster (NewYork, weight 20)
	// more often than near the lightest (Minneapolis, weight 3).
	r := sim.NewRand(3)
	cp := DefaultUSPlacer()
	clusters := USMetroClusters()
	var ny, mn Point
	for _, c := range clusters {
		switch c.Name {
		case "NewYork":
			ny = c.Center
		case "Minneapolis":
			mn = c.Center
		}
	}
	nearNY, nearMN := 0, 0
	for i := 0; i < 20000; i++ {
		p := cp.Place(r)
		if p.DistanceTo(ny) < 200 {
			nearNY++
		}
		if p.DistanceTo(mn) < 200 {
			nearMN++
		}
	}
	if nearNY <= nearMN*2 {
		t.Fatalf("cluster weights not respected: NY=%d MN=%d", nearNY, nearMN)
	}
}

func TestNewClusterPlacerValidation(t *testing.T) {
	rg := USRegion()
	if _, err := NewClusterPlacer(rg, nil); err == nil {
		t.Fatal("empty cluster list accepted")
	}
	bad := []Cluster{{Name: "x", Center: rg.Center(), Sigma: 10, Weight: 0}}
	if _, err := NewClusterPlacer(rg, bad); err == nil {
		t.Fatal("zero weight accepted")
	}
	bad[0].Weight = 1
	bad[0].Sigma = 0
	if _, err := NewClusterPlacer(rg, bad); err == nil {
		t.Fatal("zero sigma accepted")
	}
}

func TestLocatorZeroErrorIsExact(t *testing.T) {
	r := sim.NewRand(4)
	l := Locator{Region: USRegion()}
	p := Point{1000, 1000}
	if got := l.Locate(p, r); got != p {
		t.Fatalf("zero-error locate moved point: %v", got)
	}
}

func TestLocatorErrorMagnitude(t *testing.T) {
	r := sim.NewRand(5)
	l := Locator{Region: USRegion(), ErrorSigma: 50}
	p := Point{2000, 1500}
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += p.DistanceTo(l.Locate(p, r))
	}
	mean := sum / n
	// Mean of a 2-D Gaussian displacement is sigma*sqrt(pi/2) ~= 62.7km.
	if mean < 50 || mean > 80 {
		t.Fatalf("geolocation error mean = %.1fkm, want ~63km", mean)
	}
}

func TestSpreadPointsCountAndContainment(t *testing.T) {
	r := sim.NewRand(6)
	rg := USRegion()
	for _, n := range []int{0, 1, 2, 5, 13, 25, 45, 600} {
		pts := SpreadPoints(rg, n, r)
		if len(pts) != n {
			t.Fatalf("SpreadPoints(%d) returned %d points", n, len(pts))
		}
		for _, p := range pts {
			if !rg.Contains(p) {
				t.Fatalf("spread point outside region: %v", p)
			}
		}
	}
}

func TestSpreadPointsAreSpread(t *testing.T) {
	// With 5 datacenters over the US, the min pairwise distance should be
	// continental-scale, not clumped.
	r := sim.NewRand(7)
	pts := SpreadPoints(USRegion(), 5, r)
	min := math.Inf(1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].DistanceTo(pts[j]); d < min {
				min = d
			}
		}
	}
	if min < 500 {
		t.Fatalf("5 spread datacenters clumped: min pairwise distance %.0fkm", min)
	}
}
