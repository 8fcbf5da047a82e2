package world

import (
	"math"
	"sort"
)

// PartitionKD splits the world into 2^depth regions with a kd-tree over the
// avatar positions, alternating split axes and cutting at the median — the
// load-balancing approach of Bezerra et al. (the paper's refs [1][12]) that
// MMOG clouds use to assign regions of the virtual environment to servers.
// Regions tile the bounds exactly; each carries its avatar count.
func PartitionKD(bounds Rect, avatars []Vec2, depth int) []Region {
	return PartitionKDSnap(bounds, avatars, depth, 0, 0)
}

// PartitionKDSnap is PartitionKD with every cut snapped to the nearest
// multiple of snapX (vertical cuts) or snapY (horizontal cuts), both
// anchored at the plane origin. The shard planner passes spatial.CellGeometry
// for the partitioned population here, so partition boundaries land on a
// regular lattice (a layout hint: the fog's live shortlist grid retunes with
// the admissible supernode count). A snap of zero leaves that axis
// unsnapped; a cut is also left unsnapped when its slab is narrower than
// one cell (no interior multiple exists).
func PartitionKDSnap(bounds Rect, avatars []Vec2, depth int, snapX, snapY float64) []Region {
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
				cut = advanceCut(pts, mid, axis)
			}
		default:
			cut = pts[mid].Y
			if pts[0].Y == cut {
				cut = advanceCut(pts, mid, axis)
			}
		}
		// Out-of-range cuts (duplicate stacks spanning the whole slab, or
		// median points on the boundary) fall back to a geometric cut so
		// regions keep positive area.
		lo, hi := r.Min, r.Max
		if axis == 0 {
			cut = snapCut(cut, lo.X, hi.X, snapX)
			if cut <= lo.X || cut >= hi.X {
				cut = (lo.X + hi.X) / 2
			}
		} else {
			cut = snapCut(cut, lo.Y, hi.Y, snapY)
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

// advanceCut returns the first coordinate strictly greater than the median
// value on the given axis (pts are sorted on that axis), or NaN-free +Inf
// semantics via the caller's boundary guard when every point shares the
// value: math.Inf pushes the cut out of range, triggering the geometric
// fallback.
func advanceCut(pts []Vec2, mid, axis int) float64 {
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

// snapCut rounds a cut to the nearest origin-anchored multiple of snap that
// stays strictly inside (lo, hi). When no such multiple exists (the slab is
// narrower than one snap unit) or snap is zero, the cut is returned as is.
func snapCut(cut, lo, hi, snap float64) float64 {
	if snap <= 0 || math.IsInf(cut, 0) {
		return cut
	}
	s := math.Round(cut/snap) * snap
	if s <= lo {
		s += snap
	}
	if s >= hi {
		s -= snap
	}
	if s <= lo || s >= hi {
		return cut
	}
	return s
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
