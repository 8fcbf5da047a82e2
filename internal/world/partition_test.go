package world

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cloudfog/internal/sim"
)

func clusteredAvatars(rng *sim.Rand, n int) []Vec2 {
	// Three hotspots plus a uniform background — the skewed avatar
	// distribution that motivates kd-tree balancing.
	out := make([]Vec2, n)
	hotspots := []Vec2{{1000, 1000}, {8000, 2000}, {5000, 9000}}
	for i := range out {
		if rng.Float64() < 0.8 {
			h := hotspots[rng.Intn(len(hotspots))]
			out[i] = Vec2{h.X + rng.NormFloat64()*300, h.Y + rng.NormFloat64()*300}
		} else {
			out[i] = Vec2{rng.Float64() * 10000, rng.Float64() * 10000}
		}
	}
	return out
}

func TestPartitionKDTilesExactly(t *testing.T) {
	rng := sim.NewRand(1)
	bounds := DefaultConfig().Bounds
	avatars := clusteredAvatars(rng, 500)
	regions := PartitionKD(bounds, avatars, 4)
	if len(regions) != 16 {
		t.Fatalf("depth 4 produced %d regions, want 16", len(regions))
	}
	// Every avatar falls in exactly one region, and counts agree.
	total := 0
	for _, r := range regions {
		total += r.Avatars
		if r.Bounds.Width() <= 0 || r.Bounds.Height() <= 0 {
			t.Fatalf("degenerate region %+v", r.Bounds)
		}
	}
	if total != len(avatars) {
		t.Fatalf("region counts sum to %d, want %d", total, len(avatars))
	}
	for _, p := range avatars {
		in := 0
		for _, r := range regions {
			if r.Bounds.Contains(bounds.Clamp(p)) {
				in++
			}
		}
		if in != 1 {
			t.Fatalf("avatar %+v in %d regions", p, in)
		}
	}
	// Area conservation.
	area := 0.0
	for _, r := range regions {
		area += r.Bounds.Width() * r.Bounds.Height()
	}
	want := bounds.Width() * bounds.Height()
	if math.Abs(area-want)/want > 1e-9 {
		t.Fatalf("regions cover area %v, want %v", area, want)
	}
}

func TestPartitionKDBalancesLoad(t *testing.T) {
	rng := sim.NewRand(2)
	bounds := DefaultConfig().Bounds
	avatars := clusteredAvatars(rng, 1024)
	kd := PartitionKD(bounds, avatars, 3) // 8 regions

	// Compare against a uniform 4x2 geometric grid.
	grid := []Region{}
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			r := Rect{
				Min: Vec2{bounds.Width() / 4 * float64(i), bounds.Height() / 2 * float64(j)},
				Max: Vec2{bounds.Width() / 4 * float64(i+1), bounds.Height() / 2 * float64(j+1)},
			}
			count := 0
			for _, p := range avatars {
				if r.Contains(p) {
					count++
				}
			}
			grid = append(grid, Region{Bounds: r, Avatars: count})
		}
	}
	imbalance := func(rs []Region) float64 {
		max, mean := 0, 0.0
		for _, r := range rs {
			if r.Avatars > max {
				max = r.Avatars
			}
			mean += float64(r.Avatars)
		}
		mean /= float64(len(rs))
		return float64(max) / mean
	}
	if imbalance(kd) >= imbalance(grid) {
		t.Fatalf("kd-tree imbalance %.2f not better than uniform grid %.2f",
			imbalance(kd), imbalance(grid))
	}
	// Median splits keep every region within a small factor of the mean.
	if imbalance(kd) > 1.5 {
		t.Fatalf("kd-tree imbalance %.2f too high", imbalance(kd))
	}
}

func TestPartitionKDDepthZero(t *testing.T) {
	bounds := DefaultConfig().Bounds
	regions := PartitionKD(bounds, []Vec2{{1, 1}}, 0)
	if len(regions) != 1 || regions[0].Bounds != bounds || regions[0].Avatars != 1 {
		t.Fatalf("depth 0 wrong: %+v", regions)
	}
}

func TestPartitionKDEmptyWorld(t *testing.T) {
	bounds := DefaultConfig().Bounds
	regions := PartitionKD(bounds, nil, 3)
	if len(regions) != 8 {
		t.Fatalf("%d regions, want 8", len(regions))
	}
	for _, r := range regions {
		if r.Avatars != 0 {
			t.Fatal("phantom avatars")
		}
		if r.Bounds.Width() <= 0 || r.Bounds.Height() <= 0 {
			t.Fatal("degenerate empty-world region")
		}
	}
}

func TestPartitionKDDegenerateStack(t *testing.T) {
	// All avatars at the same point: geometric fallback must keep
	// positive-area regions.
	bounds := DefaultConfig().Bounds
	pts := make([]Vec2, 64)
	for i := range pts {
		pts[i] = Vec2{5000, 5000}
	}
	regions := PartitionKD(bounds, pts, 4)
	total := 0
	for _, r := range regions {
		if r.Bounds.Width() <= 0 || r.Bounds.Height() <= 0 {
			t.Fatalf("degenerate region %+v", r.Bounds)
		}
		total += r.Avatars
	}
	if total != len(pts) {
		t.Fatalf("lost avatars: %d of %d", total, len(pts))
	}
}

func TestPartitionKDDuplicateCoordinate(t *testing.T) {
	// A majority of avatars share one coordinate with a few distinct
	// stragglers. The median lands on the duplicated value; a cut exactly
	// there would leave the left slab with zero avatars (Contains is
	// max-exclusive) while a naive count would still bill it for them. The
	// guarded cut advances past the duplicate run, so both children hold
	// avatars and every region keeps positive area.
	bounds := Rect{Min: Vec2{0, 0}, Max: Vec2{10, 10}}
	pts := []Vec2{{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}, {8, 2}, {9, 7}}
	regions := PartitionKD(bounds, pts, 1)
	if len(regions) != 2 {
		t.Fatalf("depth 1 produced %d regions, want 2", len(regions))
	}
	total := 0
	for _, r := range regions {
		if r.Bounds.Width() <= 0 || r.Bounds.Height() <= 0 {
			t.Fatalf("degenerate region %+v", r.Bounds)
		}
		if r.Avatars == len(pts) {
			t.Fatalf("one region swallowed all %d avatars: %+v", len(pts), r)
		}
		total += r.Avatars
	}
	if total != len(pts) {
		t.Fatalf("lost avatars: %d of %d", total, len(pts))
	}
	// Counts must agree with actual containment region by region.
	for _, r := range regions {
		in := 0
		for _, p := range pts {
			if r.Bounds.Contains(p) {
				in++
			}
		}
		if in != r.Avatars {
			t.Fatalf("region %+v bills %d avatars but contains %d", r.Bounds, r.Avatars, in)
		}
	}
}

func TestAssignRegionsBalances(t *testing.T) {
	rng := sim.NewRand(3)
	bounds := DefaultConfig().Bounds
	avatars := clusteredAvatars(rng, 2048)
	regions := PartitionKD(bounds, avatars, 5) // 32 regions
	assign := AssignRegions(regions, 5)
	if len(assign) != len(regions) {
		t.Fatal("assignment length mismatch")
	}
	for _, s := range assign {
		if s < 0 || s >= 5 {
			t.Fatalf("server index %d out of range", s)
		}
	}
	if im := LoadImbalance(regions, assign, 5); im > 1.15 {
		t.Fatalf("server load imbalance %.3f, want near 1", im)
	}
}

func TestLoadImbalanceEdgeCases(t *testing.T) {
	if LoadImbalance(nil, nil, 3) != 1 {
		t.Fatal("empty imbalance != 1")
	}
	regions := []Region{{Avatars: 0}, {Avatars: 0}}
	if LoadImbalance(regions, []int{0, 1}, 2) != 1 {
		t.Fatal("zero-load imbalance != 1")
	}
}

func TestRectContainsProperty(t *testing.T) {
	f := func(x, y float64) bool {
		r := Rect{Min: Vec2{0, 0}, Max: Vec2{100, 100}}
		p := Vec2{math.Mod(math.Abs(x), 200), math.Mod(math.Abs(y), 200)}
		in := r.Contains(p)
		wantIn := p.X >= 0 && p.X < 100 && p.Y >= 0 && p.Y < 100
		return in == wantIn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// partitionReference is PartitionKD as it was while it fully sorted the
// points at every level and copied them into two grown halves (PR 21), kept
// verbatim as the oracle for the version that partitions one copy in place.
func partitionReference(bounds Rect, avatars []Vec2, depth int) []Region {
	if depth < 0 {
		depth = 0
	}
	pts := make([]Vec2, len(avatars))
	copy(pts, avatars)
	var out []Region
	var split func(r Rect, pts []Vec2, d int, axis int)
	split = func(r Rect, pts []Vec2, d int, axis int) {
		if d == 0 {
			out = append(out, Region{Bounds: r, Avatars: len(pts)})
			return
		}
		if axis == 0 {
			sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		} else {
			sort.Slice(pts, func(i, j int) bool { return pts[i].Y < pts[j].Y })
		}
		mid := len(pts) / 2
		var cut float64
		switch {
		case len(pts) == 0:
			// No load information: cut geometrically.
			if axis == 0 {
				cut = (r.Min.X + r.Max.X) / 2
			} else {
				cut = (r.Min.Y + r.Max.Y) / 2
			}
		case axis == 0:
			cut = pts[mid].X
			if pts[0].X == cut {
				// Every coordinate below the median duplicates it. Contains
				// is max-exclusive, so cutting at the median would hand the
				// whole stack to the right child and leave the left region
				// holding avatars it cannot contain (a zero-load slab).
				// Advance the cut past the duplicate run instead, keeping
				// the stack — and a balanced split — on the left.
				cut = advanceCutReference(pts, mid, axis)
			}
		default:
			cut = pts[mid].Y
			if pts[0].Y == cut {
				cut = advanceCutReference(pts, mid, axis)
			}
		}
		// Out-of-range cuts (duplicate stacks spanning the whole slab, or
		// median points on the boundary) fall back to a geometric cut so
		// regions keep positive area.
		lo, hi := r.Min, r.Max
		if axis == 0 {
			if cut <= lo.X || cut >= hi.X {
				cut = (lo.X + hi.X) / 2
			}
		} else {
			if cut <= lo.Y || cut >= hi.Y {
				cut = (lo.Y + hi.Y) / 2
			}
		}
		var left, right Rect
		if axis == 0 {
			left = Rect{Min: lo, Max: Vec2{cut, hi.Y}}
			right = Rect{Min: Vec2{cut, lo.Y}, Max: hi}
		} else {
			left = Rect{Min: lo, Max: Vec2{hi.X, cut}}
			right = Rect{Min: Vec2{lo.X, cut}, Max: hi}
		}
		var lp, rp []Vec2
		for _, p := range pts {
			if left.Contains(p) {
				lp = append(lp, p)
			} else {
				rp = append(rp, p)
			}
		}
		split(left, lp, d-1, 1-axis)
		split(right, rp, d-1, 1-axis)
	}
	split(bounds, pts, depth, 0)
	return out
}

// advanceCutReference returns the first coordinate strictly greater than the median
// value on the given axis (pts are sorted on that axis), or NaN-free +Inf
// semantics via the caller's boundary guard when every point shares the
// value: math.Inf pushes the cut out of range, triggering the geometric
// fallback.
func advanceCutReference(pts []Vec2, mid, axis int) float64 {
	v := pts[mid].X
	if axis != 0 {
		v = pts[mid].Y
	}
	for _, p := range pts[mid:] {
		c := p.X
		if axis != 0 {
			c = p.Y
		}
		if c > v {
			return c
		}
	}
	return math.Inf(1)
}

// TestPartitionMatchesReference: the in-place partition returns the
// reference's regions — bounds bit for bit, avatar counts exactly — over
// random clouds, coincident stacks, axes every point shares, points on and
// outside the bounds, at depth 0 to 6, down to one point and none.
func TestPartitionMatchesReference(t *testing.T) {
	rng := sim.NewRand(20261002)
	bounds := Rect{Min: Vec2{0, 0}, Max: Vec2{1000, 600}}
	type cloud struct {
		name string
		gen  func(n int) []Vec2
	}
	clouds := []cloud{ // a slice, so the shared rng is consumed in one order
		{"uniform", func(n int) []Vec2 {
			pts := make([]Vec2, n)
			for i := range pts {
				pts[i] = Vec2{rng.Float64() * 1000, rng.Float64() * 600}
			}
			return pts
		}},
		{"clustered", func(n int) []Vec2 {
			pts := clusteredAvatars(rng, n) // hotspots beyond these bounds too
			for i := range pts {
				pts[i] = Vec2{pts[i].X / 8, pts[i].Y / 8}
			}
			return pts
		}},
		{"stacks", func(n int) []Vec2 { // a few coincident piles
			piles := []Vec2{{250, 300}, {250, 100}, {700, 300}, {999, 599}}
			pts := make([]Vec2, n)
			for i := range pts {
				pts[i] = piles[rng.Intn(len(piles))]
			}
			return pts
		}},
		{"one-column", func(n int) []Vec2 { // every X equal
			pts := make([]Vec2, n)
			for i := range pts {
				pts[i] = Vec2{400, rng.Float64() * 600}
			}
			return pts
		}},
		{"one-point", func(n int) []Vec2 { // every X and Y equal
			pts := make([]Vec2, n)
			for i := range pts {
				pts[i] = Vec2{125, 250}
			}
			return pts
		}},
		{"edges-and-outside", func(n int) []Vec2 { // on every edge, past every edge
			pts := make([]Vec2, n)
			for i := range pts {
				switch rng.Intn(6) {
				case 0:
					pts[i] = Vec2{0, rng.Float64() * 600}
				case 1:
					pts[i] = Vec2{1000, rng.Float64() * 600}
				case 2:
					pts[i] = Vec2{rng.Float64() * 1000, 600}
				case 3:
					pts[i] = Vec2{-50 + rng.Float64()*1100, -40 + rng.Float64()*680}
				case 4:
					pts[i] = Vec2{1000, 600}
				default:
					pts[i] = Vec2{rng.Float64() * 1000, rng.Float64() * 600}
				}
			}
			return pts
		}},
	}
	for _, c := range clouds {
		for _, n := range []int{0, 1, 2, 3, 17, 64, 500} {
			for depth := 0; depth <= 6; depth++ {
				pts := c.gen(n)
				given := append([]Vec2(nil), pts...)
				want := partitionReference(bounds, pts, depth)
				got := PartitionKD(bounds, pts, depth)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %d points, depth %d: regions differ from the reference\n got: %+v\nwant: %+v",
						c.name, n, depth, got, want)
				}
				if !slices.Equal(pts, given) {
					t.Fatalf("%s, %d points, depth %d: the caller's points were reordered", c.name, n, depth)
				}
			}
		}
	}
}
