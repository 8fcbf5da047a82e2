// Package geo models node geography for the CloudFog reproduction.
//
// Nodes (players, supernodes, datacenters, edge servers) live on a
// continental-scale 2-D plane measured in kilometers. The CloudFog paper
// geolocates nodes from their IP addresses (refs [20][21]) and uses the
// resulting coordinates to shortlist nearby supernodes; this package supplies
// the coordinates, population-clustered placement, and an IP-geolocation
// error model for that shortlist step.
package geo

import (
	"fmt"
	"math"

	"cloudfog/internal/sim"
)

// Point is a position on the plane, in kilometers.
type Point struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance to q in kilometers.
func (p Point) DistanceTo(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// String formats the point with kilometer precision.
func (p Point) String() string { return fmt.Sprintf("(%.0fkm,%.0fkm)", p.X, p.Y) }

// Region is the rectangular deployment area. The defaults approximate the
// contiguous United States, where both the paper's PlanetLab nodes and the
// Choy et al. latency measurements it builds on were located.
type Region struct {
	Width, Height float64 // kilometers
}

// USRegion approximates the contiguous United States.
func USRegion() Region { return Region{Width: 4500, Height: 2900} }

// Contains reports whether p lies inside the region.
func (rg Region) Contains(p Point) bool {
	return p.X >= 0 && p.X <= rg.Width && p.Y >= 0 && p.Y <= rg.Height
}

// Clamp returns p moved to the nearest point inside the region.
func (rg Region) Clamp(p Point) Point {
	return Point{X: clamp(p.X, 0, rg.Width), Y: clamp(p.Y, 0, rg.Height)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Center returns the region's midpoint.
func (rg Region) Center() Point { return Point{X: rg.Width / 2, Y: rg.Height / 2} }

// Placer produces node positions.
type Placer interface {
	// Place draws the next position using the provided random stream.
	Place(r *sim.Rand) Point
}

// Cluster is one population center: nodes placed from it are normally
// distributed around Center with standard deviation Sigma kilometers.
type Cluster struct {
	Name   string
	Center Point
	Sigma  float64
	Weight float64 // relative population share
}

// ClusterPlacer places nodes around weighted population centers, mirroring
// how game players concentrate in metropolitan areas.
type ClusterPlacer struct {
	Region      Region
	Clusters    []Cluster
	totalWeight float64
}

// NewClusterPlacer validates the clusters and precomputes weights.
func NewClusterPlacer(region Region, clusters []Cluster) (*ClusterPlacer, error) {
	if len(clusters) == 0 {
		return nil, fmt.Errorf("geo: NewClusterPlacer requires at least one cluster")
	}
	total := 0.0
	for i, c := range clusters {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("geo: cluster %d (%s) has non-positive weight %v", i, c.Name, c.Weight)
		}
		if c.Sigma <= 0 {
			return nil, fmt.Errorf("geo: cluster %d (%s) has non-positive sigma %v", i, c.Name, c.Sigma)
		}
		total += c.Weight
	}
	return &ClusterPlacer{Region: region, Clusters: clusters, totalWeight: total}, nil
}

// Place picks a cluster proportionally to weight, then draws a Gaussian
// offset around its center, clamped to the region.
func (cp *ClusterPlacer) Place(r *sim.Rand) Point {
	target := r.Float64() * cp.totalWeight
	idx := len(cp.Clusters) - 1
	acc := 0.0
	for i, c := range cp.Clusters {
		acc += c.Weight
		if target < acc {
			idx = i
			break
		}
	}
	c := cp.Clusters[idx]
	p := Point{
		X: c.Center.X + r.NormFloat64()*c.Sigma,
		Y: c.Center.Y + r.NormFloat64()*c.Sigma,
	}
	return cp.Region.Clamp(p)
}

// USMetroClusters returns a 15-metro population model of the contiguous US
// (positions are plane approximations of real metro locations, weights are
// rough population shares). It drives all default player placement.
func USMetroClusters() []Cluster {
	return []Cluster{
		{Name: "NewYork", Center: Point{4100, 2100}, Sigma: 90, Weight: 20},
		{Name: "LosAngeles", Center: Point{500, 1100}, Sigma: 100, Weight: 13},
		{Name: "Chicago", Center: Point{3000, 2100}, Sigma: 80, Weight: 9},
		{Name: "Dallas", Center: Point{2500, 1000}, Sigma: 80, Weight: 8},
		{Name: "Houston", Center: Point{2600, 700}, Sigma: 70, Weight: 7},
		{Name: "WashingtonDC", Center: Point{3950, 1850}, Sigma: 70, Weight: 6},
		{Name: "Miami", Center: Point{3800, 300}, Sigma: 60, Weight: 6},
		{Name: "Philadelphia", Center: Point{4050, 2000}, Sigma: 60, Weight: 6},
		{Name: "Atlanta", Center: Point{3450, 1100}, Sigma: 70, Weight: 6},
		{Name: "Phoenix", Center: Point{900, 1050}, Sigma: 60, Weight: 5},
		{Name: "Boston", Center: Point{4300, 2300}, Sigma: 60, Weight: 5},
		{Name: "SanFrancisco", Center: Point{250, 1700}, Sigma: 70, Weight: 5},
		{Name: "Seattle", Center: Point{450, 2700}, Sigma: 60, Weight: 4},
		{Name: "Denver", Center: Point{1800, 1700}, Sigma: 60, Weight: 3},
		{Name: "Minneapolis", Center: Point{2750, 2400}, Sigma: 60, Weight: 3},
	}
}

// DefaultUSPlacer returns the metro-clustered placer used by all default
// experiment configurations.
func DefaultUSPlacer() *ClusterPlacer {
	p, err := NewClusterPlacer(USRegion(), USMetroClusters())
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return p
}

// Locator models IP-based geolocation: the cloud knows node positions only
// up to a Gaussian error of ErrorSigma kilometers, matching the paper's
// assumption that "node locations and coordinates can be determined by IP
// addresses" approximately.
type Locator struct {
	Region     Region
	ErrorSigma float64
}

// Locate returns the estimated position of a node at truth.
func (l Locator) Locate(truth Point, r *sim.Rand) Point {
	if l.ErrorSigma <= 0 {
		return truth
	}
	p := Point{
		X: truth.X + r.NormFloat64()*l.ErrorSigma,
		Y: truth.Y + r.NormFloat64()*l.ErrorSigma,
	}
	return l.Region.Clamp(p)
}

// SpreadPoints returns n positions spread as a jittered grid over the region,
// used to site datacenters and EdgeCloud servers "randomly distributed"
// across the deployment area while avoiding degenerate clumping at small n.
func SpreadPoints(region Region, n int, r *sim.Rand) []Point {
	if n <= 0 {
		return nil
	}
	// Choose grid dimensions close to the region aspect ratio.
	cols := int(math.Ceil(math.Sqrt(float64(n) * region.Width / region.Height)))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	cellW := region.Width / float64(cols)
	cellH := region.Height / float64(rows)
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		cx := float64(i%cols)*cellW + cellW/2
		cy := float64(i/cols)*cellH + cellH/2
		p := Point{
			X: cx + (r.Float64()-0.5)*cellW*0.6,
			Y: cy + (r.Float64()-0.5)*cellH*0.6,
		}
		pts = append(pts, region.Clamp(p))
	}
	return pts
}
