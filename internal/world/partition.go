package world

import (
	"math"
	"slices"
	"sort"
)

// PartitionKD splits the world into 2^depth regions with a kd-tree over the
// avatar positions, alternating split axes and cutting at the median — the
// load-balancing approach of Bezerra et al. (the paper's refs [1][12]) that
// MMOG clouds use to assign regions of the virtual environment to servers.
// Regions tile the bounds exactly; each carries its avatar count.
func PartitionKD(bounds Rect, avatars []Vec2, depth int) []Region {
	if depth < 0 {
		depth = 0
	}
	// One copy of the points, partitioned in place level by level: a node's
	// two children are the two halves of its own sub-slice. keys is scratch
	// every node fills with its points' coordinates on the split axis — a
	// node is done with it before its children start.
	pts := make([]Vec2, len(avatars))
	copy(pts, avatars)
	keys := make([]float64, len(pts))
	var out []Region
	var split func(r Rect, pts []Vec2, d int, axis int)
	split = func(r Rect, pts []Vec2, d int, axis int) {
		if d == 0 {
			out = append(out, Region{Bounds: r, Avatars: len(pts)})
			return
		}
		lo, hi := r.Min.X, r.Max.X
		if axis != 0 {
			lo, hi = r.Min.Y, r.Max.Y
		}
		sorted := keys[:len(pts)]
		for i, p := range pts {
			sorted[i] = p.X
			if axis != 0 {
				sorted[i] = p.Y
			}
		}
		slices.Sort(sorted)
		// No load information: cut geometrically.
		cut := (lo + hi) / 2
		if mid := len(sorted) / 2; len(sorted) > 0 {
			cut = sorted[mid]
			if sorted[0] == cut {
				// Every coordinate below the median duplicates it. Contains
				// is max-exclusive, so cutting at the median would hand the
				// whole stack to the right child and leave the left region
				// holding avatars it cannot contain (a zero-load slab).
				// Advance the cut past the duplicate run instead, keeping
				// the stack — and a balanced split — on the left.
				cut = advanceCut(sorted, mid)
			}
		}
		// Out-of-range cuts (duplicate stacks spanning the whole slab, or
		// median points on the boundary) fall back to a geometric cut so
		// regions keep positive area.
		if cut <= lo || cut >= hi {
			cut = (lo + hi) / 2
		}
		left, right := r, r
		if axis == 0 {
			left.Max.X, right.Min.X = cut, cut
		} else {
			left.Max.Y, right.Min.Y = cut, cut
		}
		// The left child takes what it contains, the right child the rest —
		// points outside this node's own bounds included.
		n := 0
		for i, p := range pts {
			if left.Contains(p) {
				pts[i], pts[n] = pts[n], p
				n++
			}
		}
		split(left, pts[:n], d-1, 1-axis)
		split(right, pts[n:], d-1, 1-axis)
	}
	split(bounds, pts, depth, 0)
	return out
}

// advanceCut returns the first coordinate strictly greater than the median
// value sorted[mid], or +Inf when every point from the median up shares it:
// that pushes the cut out of range, triggering the caller's geometric
// fallback.
func advanceCut(sorted []float64, mid int) float64 {
	for _, c := range sorted[mid:] {
		if c > sorted[mid] {
			return c
		}
	}
	return math.Inf(1)
}

// Region is one kd-tree leaf with its avatar load.
type Region struct {
	Bounds  Rect
	Avatars int
}

// AssignRegions distributes regions across n servers, balancing total
// avatar load greedily (largest region to the least-loaded server). It
// returns, for each region index, the server it is assigned to.
func AssignRegions(regions []Region, n int) []int {
	if n < 1 {
		n = 1
	}
	order := make([]int, len(regions))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return regions[order[a]].Avatars > regions[order[b]].Avatars
	})
	load := make([]int, n)
	assign := make([]int, len(regions))
	for _, ri := range order {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[ri] = best
		load[best] += regions[ri].Avatars
	}
	return assign
}

// LoadImbalance returns max/mean server load for an assignment (1.0 is
// perfect balance). Empty assignments return 1.
func LoadImbalance(regions []Region, assign []int, n int) float64 {
	if n < 1 || len(regions) == 0 {
		return 1
	}
	load := make([]int, n)
	total := 0
	for i, r := range regions {
		load[assign[i]] += r.Avatars
		total += r.Avatars
	}
	if total == 0 {
		return 1
	}
	max := 0
	for _, l := range load {
		if l > max {
			max = l
		}
	}
	mean := float64(total) / float64(n)
	return float64(max) / mean
}
