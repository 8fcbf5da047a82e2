// Package spatial provides a uniform-grid spatial index over geolocated
// points with incremental insert/remove and deterministic k-nearest
// queries.
//
// The CloudFog assignment protocol shortlists the geographically closest
// supernodes for every joining player (paper §III-A3). At paper scale that
// shortlist runs for every one of 10,000 players at every sweep point of
// every figure, and on every failover; a full scan-and-sort over all
// registered supernodes is the dominant cost of the whole evaluation. The
// grid turns that into an expanding-ring search over the few cells around
// the query point, keeping the k best seen so far in a sorted slice.
//
// Determinism contract: neighbors are ordered by squared distance with
// ties broken on ascending ID. The ordering is a strict total order over
// distinct IDs, so query results never depend on insertion order, removal
// history, or internal bucket layout — the same index contents always
// produce byte-identical shortlists.
package spatial

import "math"

// Neighbor is one k-nearest query result.
type Neighbor struct {
	// ID identifies the indexed point.
	ID int64
	// Dist2 is the squared Euclidean distance to the query point.
	Dist2 float64
}

// worse reports whether a ranks strictly after b in query order
// (farther, or equally far with the larger ID).
func worse(a, b Neighbor) bool {
	return a.Dist2 > b.Dist2 || (a.Dist2 == b.Dist2 && a.ID > b.ID)
}

type entry struct {
	id   int64
	x, y float64
}

// Grid is a uniform-grid index over points on a [0,Width]×[0,Height]
// plane. Inserts and removes are incremental; the bucket geometry retunes
// itself (an amortized-O(1) rebucketing) as the point count grows or
// shrinks, keeping mean occupancy near targetPerCell. The zero value is
// not useful; use NewGrid.
//
// Grid is not safe for concurrent mutation; concurrent queries without
// writers are safe.
type Grid struct {
	width, height float64
	cols, rows    int
	cellW, cellH  float64
	minCell       float64 // min(cellW, cellH), the ring lower-bound unit
	cells         [][]entry
	cellOf        map[int64]int // id → bucket index
	n             int
}

const (
	// targetPerCell is the mean bucket occupancy after a retune.
	targetPerCell = 2.0
	// growLoad triggers a retune when mean occupancy exceeds it.
	growLoad = 6.0
	// minCells floors the grid so small indexes stay cheap to build.
	minCells = 16
)

// NewGrid returns an empty index over a width×height plane (kilometers in
// this repo, but any consistent unit works). Points outside the plane are
// clamped into the boundary cells, so out-of-range inserts are safe.
func NewGrid(width, height float64) *Grid {
	if width <= 0 {
		width = 1
	}
	if height <= 0 {
		height = 1
	}
	g := &Grid{width: width, height: height, cellOf: make(map[int64]int)}
	g.rebucket(minCells)
	return g
}

// Len returns the number of indexed points.
func (g *Grid) Len() int { return g.n }

// rebucket lays out ~want cells matching the plane's aspect ratio and
// redistributes every entry.
func (g *Grid) rebucket(want int) {
	if want < minCells {
		want = minCells
	}
	cols := int(math.Round(math.Sqrt(float64(want) * g.width / g.height)))
	if cols < 1 {
		cols = 1
	}
	rows := (want + cols - 1) / cols
	if rows < 1 {
		rows = 1
	}
	old := g.cells
	g.cols, g.rows = cols, rows
	g.cellW = g.width / float64(cols)
	g.cellH = g.height / float64(rows)
	g.minCell = math.Min(g.cellW, g.cellH)
	g.cells = make([][]entry, cols*rows)
	for _, bucket := range old {
		for _, e := range bucket {
			idx := g.bucketIndex(e.x, e.y)
			g.cells[idx] = append(g.cells[idx], e)
			g.cellOf[e.id] = idx
		}
	}
}

// cellCoords maps a position to cell coordinates, clamping out-of-plane
// positions into the boundary cells.
func (g *Grid) cellCoords(x, y float64) (cx, cy int) {
	cx = int(x / g.cellW)
	cy = int(y / g.cellH)
	if cx < 0 {
		cx = 0
	} else if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.rows {
		cy = g.rows - 1
	}
	return cx, cy
}

func (g *Grid) bucketIndex(x, y float64) int {
	cx, cy := g.cellCoords(x, y)
	return cy*g.cols + cx
}

// Insert adds a point, replacing any existing point with the same ID.
func (g *Grid) Insert(id int64, x, y float64) {
	if _, ok := g.cellOf[id]; ok {
		g.Remove(id)
	}
	idx := g.bucketIndex(x, y)
	g.cells[idx] = append(g.cells[idx], entry{id: id, x: x, y: y})
	g.cellOf[id] = idx
	g.n++
	if float64(g.n) > growLoad*float64(len(g.cells)) {
		g.rebucket(int(float64(g.n) / targetPerCell))
	}
}

// Remove deletes a point by ID, reporting whether it was present.
func (g *Grid) Remove(id int64) bool {
	idx, ok := g.cellOf[id]
	if !ok {
		return false
	}
	bucket := g.cells[idx]
	for i := range bucket {
		if bucket[i].id == id {
			last := len(bucket) - 1
			bucket[i] = bucket[last]
			g.cells[idx] = bucket[:last]
			break
		}
	}
	delete(g.cellOf, id)
	g.n--
	if len(g.cells) > minCells && float64(g.n) < 0.5*float64(len(g.cells)) {
		g.rebucket(int(float64(g.n) / targetPerCell))
	}
	return true
}

// Nearest returns up to k accepted points closest to (x, y), ordered by
// (squared distance, ID) ascending. A nil accept admits every point; accept
// must be pure, see NearestInto.
func (g *Grid) Nearest(x, y float64, k int, accept func(id int64) bool) []Neighbor {
	return g.NearestInto(nil, x, y, k, accept)
}

// NearestInto is Nearest writing into buf (grown as needed), so steady-state
// callers can keep a scratch slice and avoid per-query allocation.
//
// The search expands square rings of cells around the query cell. Any
// point in a ring at Chebyshev cell distance r is at least (r-1)·minCell
// away, so once k candidates are held the search stops at the first ring
// whose lower bound strictly exceeds the worst retained distance —
// strictly, because an equal distance with a smaller ID must still be
// admitted for the ordering to stay total.
//
// accept must be pure: it is consulted only for a point that would enter the
// result as it stands (nearer than the current k-th, or fewer than k held),
// so which points it sees, and how often, depends on the bucket layout.
func (g *Grid) NearestInto(buf []Neighbor, x, y float64, k int, accept func(id int64) bool) []Neighbor {
	h := buf[:0] // the best seen so far, in result order
	if k <= 0 || g.n == 0 {
		return h
	}
	// Once k are held, worst is h[k-1], the k-th best: nearly every point a
	// query examines is only compared with it, so it is kept in a local (two
	// registers) where the comparison needs no load.
	var worst Neighbor
	cx, cy := g.cellCoords(x, y)
	maxR := max(cx, g.cols-1-cx, cy, g.rows-1-cy)
	for r := 0; r <= maxR; r++ {
		if len(h) == k && r >= 2 {
			lb := float64(r-1) * g.minCell
			if lb*lb > worst.Dist2 {
				break
			}
		}
		x0, x1 := cx-r, cx+r
		y0, y1 := cy-r, cy+r
		for iy := y0; iy <= y1; iy++ {
			if iy < 0 || iy >= g.rows {
				continue
			}
			stepX := 1
			if r > 0 && iy != y0 && iy != y1 {
				stepX = 2 * r // interior rows: only the two edge columns
			}
			for ix := x0; ix <= x1; ix += stepX {
				if ix < 0 || ix >= g.cols {
					continue
				}
				bucket := g.cells[iy*g.cols+ix]
				for i := range bucket {
					e := &bucket[i]
					dx, dy := e.x-x, e.y-y
					cand := Neighbor{ID: e.id, Dist2: dx*dx + dy*dy}
					if len(h) == k && !worse(worst, cand) {
						continue
					}
					if accept != nil && !accept(e.id) {
						continue
					}
					// Sorted insert, the k-th falling off the end: k is 15 at
					// most everywhere, so the shift is a few words.
					if len(h) < k {
						h = append(h, cand)
					}
					j := len(h) - 1
					for ; j > 0 && worse(h[j-1], cand); j-- {
						h[j] = h[j-1]
					}
					h[j] = cand
					if len(h) == k {
						worst = h[k-1]
					}
				}
			}
		}
	}
	return h
}
