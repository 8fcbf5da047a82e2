package spatial

import (
	"sort"
	"testing"

	"cloudfog/internal/sim"
)

// bruteNearest is the reference: scan every point, sort by (dist², ID).
func bruteNearest(pts map[int64][2]float64, x, y float64, k int, accept func(int64) bool) []Neighbor {
	all := make([]Neighbor, 0, len(pts))
	for id, p := range pts {
		if accept != nil && !accept(id) {
			continue
		}
		dx, dy := p[0]-x, p[1]-y
		all = append(all, Neighbor{ID: id, Dist2: dx*dx + dy*dy})
	}
	sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := sim.NewRand(42)
	const width, height = 4500.0, 2900.0
	for trial := 0; trial < 60; trial++ {
		g := NewGrid(width, height)
		pts := make(map[int64][2]float64)
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			id := int64(rng.Intn(1000)) // collisions exercise replacement
			x, y := rng.Float64()*width, rng.Float64()*height
			g.Insert(id, x, y)
			pts[id] = [2]float64{x, y}
		}
		// Remove a random subset to exercise incremental deletes.
		for id := range pts {
			if rng.Float64() < 0.2 {
				if !g.Remove(id) {
					t.Fatalf("trial %d: Remove(%d) reported absent", trial, id)
				}
				delete(pts, id)
			}
		}
		if g.Len() != len(pts) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, g.Len(), len(pts))
		}
		var accept func(int64) bool
		if trial%3 == 1 {
			accept = func(id int64) bool { return id%3 != 0 }
		}
		for q := 0; q < 20; q++ {
			x, y := rng.Float64()*width, rng.Float64()*height
			k := 1 + rng.Intn(25)
			got := g.Nearest(x, y, k, accept)
			want := bruteNearest(pts, x, y, k, accept)
			if !sameNeighbors(got, want) {
				t.Fatalf("trial %d query %d: grid %v != brute force %v", trial, q, got, want)
			}
		}
	}
}

// TestNearestTieBreaksOnID plants coincident points: equal distances must
// order by ascending ID regardless of insertion order.
func TestNearestTieBreaksOnID(t *testing.T) {
	g := NewGrid(100, 100)
	g.Insert(9, 50, 50)
	g.Insert(3, 50, 50)
	g.Insert(7, 50, 50)
	got := g.Nearest(50, 50, 2, nil)
	if len(got) != 2 || got[0].ID != 3 || got[1].ID != 7 {
		t.Fatalf("tie-break order = %v, want IDs [3 7]", got)
	}
}

// TestNearestDeterministicAcrossHistories: the same final contents must
// answer identically no matter how they were built.
func TestNearestDeterministicAcrossHistories(t *testing.T) {
	rng := sim.NewRand(7)
	type pt struct {
		id   int64
		x, y float64
	}
	pts := make([]pt, 300)
	for i := range pts {
		pts[i] = pt{int64(i), rng.Float64() * 4500, rng.Float64() * 2900}
	}

	forward := NewGrid(4500, 2900)
	for _, p := range pts {
		forward.Insert(p.id, p.x, p.y)
	}
	// Backwards, with extra points inserted and removed along the way.
	churned := NewGrid(4500, 2900)
	for i := len(pts) - 1; i >= 0; i-- {
		churned.Insert(pts[i].id, pts[i].x, pts[i].y)
		churned.Insert(10_000+int64(i), rng.Float64()*4500, rng.Float64()*2900)
	}
	for i := range pts {
		churned.Remove(10_000 + int64(i))
	}

	for q := 0; q < 50; q++ {
		x, y := rng.Float64()*4500, rng.Float64()*2900
		a := forward.Nearest(x, y, 15, nil)
		b := churned.Nearest(x, y, 15, nil)
		if !sameNeighbors(a, b) {
			t.Fatalf("query %d: forward %v != churned %v", q, a, b)
		}
	}
}

func TestInsertReplacesExistingID(t *testing.T) {
	g := NewGrid(100, 100)
	g.Insert(1, 10, 10)
	g.Insert(1, 90, 90)
	if g.Len() != 1 {
		t.Fatalf("Len = %d after replacing insert, want 1", g.Len())
	}
	got := g.Nearest(90, 90, 1, nil)
	if len(got) != 1 || got[0].Dist2 != 0 {
		t.Fatalf("replaced point not at new position: %v", got)
	}
}

func TestRetuneGrowsAndShrinks(t *testing.T) {
	g := NewGrid(4500, 2900)
	rng := sim.NewRand(11)
	for i := 0; i < 5000; i++ {
		g.Insert(int64(i), rng.Float64()*4500, rng.Float64()*2900)
	}
	if len(g.cells) <= minCells {
		t.Fatalf("grid did not grow: %d cells for %d points", len(g.cells), g.Len())
	}
	grown := len(g.cells)
	for i := 0; i < 4990; i++ {
		g.Remove(int64(i))
	}
	if len(g.cells) >= grown {
		t.Fatalf("grid did not shrink: still %d cells for %d points", len(g.cells), g.Len())
	}
	// Contents survive retunes.
	got := g.Nearest(0, 0, 10, nil)
	if len(got) != 10 {
		t.Fatalf("lost points across retunes: %d of 10 remain", len(got))
	}
}

func TestNearestEdgeCases(t *testing.T) {
	g := NewGrid(100, 100)
	if got := g.Nearest(5, 5, 3, nil); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
	g.Insert(1, 5, 5)
	if got := g.Nearest(5, 5, 0, nil); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
	if got := g.Nearest(5, 5, 10, nil); len(got) != 1 {
		t.Fatalf("k beyond size returned %v", got)
	}
	// Out-of-plane points clamp into boundary cells but keep true coords.
	g.Insert(2, -50, 500)
	got := g.Nearest(-50, 500, 1, nil)
	if len(got) != 1 || got[0].ID != 2 || got[0].Dist2 != 0 {
		t.Fatalf("out-of-plane point not found at its true position: %v", got)
	}
	if g.Remove(99) {
		t.Fatal("Remove of unknown ID reported present")
	}
}

func TestNearestIntoReusesBuffer(t *testing.T) {
	g := NewGrid(1000, 1000)
	rng := sim.NewRand(3)
	for i := 0; i < 200; i++ {
		g.Insert(int64(i), rng.Float64()*1000, rng.Float64()*1000)
	}
	buf := make([]Neighbor, 0, 32)
	out := g.NearestInto(buf, 500, 500, 15, nil)
	if len(out) != 15 {
		t.Fatalf("got %d neighbors, want 15", len(out))
	}
	if &out[0] != &buf[:1][0] {
		t.Fatal("NearestInto did not reuse the provided buffer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.NearestInto(buf[:0], 500, 500, 15, nil)
	})
	if allocs != 0 {
		t.Fatalf("NearestInto allocates %v per query with a warm buffer", allocs)
	}
}

// TestNearestConsultsAcceptOnlyForEntrants pins the traversal contract with
// an accept that watches its own calls: results equal the brute-force
// reference, and accept is only ever asked about a point that would enter
// the result as it stands — while fewer than k are held, or when it ranks
// before the current k-th. A regression to filter-first (accept for every
// entry of every visited cell) fails here on the first far point it asks
// about, not as a timing.
func TestNearestConsultsAcceptOnlyForEntrants(t *testing.T) {
	rng := sim.NewRand(99)
	const width, height = 4500.0, 2900.0
	g := NewGrid(width, height)
	pts := make(map[int64][2]float64)
	for i := 0; i < 3000; i++ {
		x, y := rng.Float64()*width, rng.Float64()*height
		g.Insert(int64(i), x, y)
		pts[int64(i)] = [2]float64{x, y}
	}
	pure := func(id int64) bool { return id%4 != 0 }
	for q := 0; q < 200; q++ {
		x, y := rng.Float64()*width, rng.Float64()*height
		k := 1 + rng.Intn(20)
		var held []Neighbor // mirrors the search: the k best accepted so far, best first
		accept := func(id int64) bool {
			p := pts[id]
			dx, dy := p[0]-x, p[1]-y
			cand := Neighbor{ID: id, Dist2: dx*dx + dy*dy}
			if len(held) == k && !worse(held[k-1], cand) {
				t.Fatalf("query %d (k=%d): accept asked about %v, which ranks after the current k-th %v",
					q, k, cand, held[k-1])
			}
			if !pure(id) {
				return false
			}
			if len(held) == k {
				held = held[:k-1]
			}
			held = append(held, cand)
			sort.Slice(held, func(i, j int) bool { return worse(held[j], held[i]) })
			return true
		}
		got := g.Nearest(x, y, k, accept)
		if want := bruteNearest(pts, x, y, k, pure); !sameNeighbors(got, want) {
			t.Fatalf("query %d: grid %v != brute force %v", q, got, want)
		}
	}
}

// TestRetuneThroughDrainAndRefill drives the grid the way the fog's
// admissible set does on every JoinAll/LeaveAll: drained to empty and
// refilled, repeatedly. Len and query results hold throughout, a whole cycle
// costs only a logarithmic number of rebuckets, and hovering at the point
// count that just triggered one (the 0.5x shrink and 6x grow thresholds)
// triggers no other.
func TestRetuneThroughDrainAndRefill(t *testing.T) {
	rng := sim.NewRand(13)
	const width, height = 4500.0, 2900.0
	const n = 3125
	type pt struct{ x, y float64 }
	all := make([]pt, n)
	for i := range all {
		all[i] = pt{rng.Float64() * width, rng.Float64() * height}
	}
	g := NewGrid(width, height)
	pts := make(map[int64][2]float64)

	rebuckets := 0
	// step applies one insert or remove, keeps the mirror, and — when the
	// grid rebucketed — hovers at that count to show the new geometry is
	// stable there.
	var step func(id int64, insert, hover bool)
	step = func(id int64, insert, hover bool) {
		before := len(g.cells)
		if insert {
			g.Insert(id, all[id].x, all[id].y)
			pts[id] = [2]float64{all[id].x, all[id].y}
		} else {
			if !g.Remove(id) {
				t.Fatalf("Remove(%d) reported absent", id)
			}
			delete(pts, id)
		}
		if g.Len() != len(pts) {
			t.Fatalf("Len = %d, want %d", g.Len(), len(pts))
		}
		if len(g.cells) == before {
			return
		}
		rebuckets++
		if !hover {
			t.Fatalf("rebucket thrash: %d → %d cells while hovering at %d points", before, len(g.cells), g.Len())
		}
		for i := 0; i < 20; i++ {
			step(id, !insert, false)
			step(id, insert, false)
		}
	}
	check := func() {
		t.Helper()
		for q := 0; q < 5; q++ {
			x, y := rng.Float64()*width, rng.Float64()*height
			if got, want := g.Nearest(x, y, 15, nil), bruteNearest(pts, x, y, 15, nil); !sameNeighbors(got, want) {
				t.Fatalf("at %d points: grid %v != brute force %v", g.Len(), got, want)
			}
		}
	}

	for cycle := 0; cycle < 3; cycle++ {
		order := rng.Perm(n)
		for i, id := range order {
			step(int64(id), true, true)
			if i%97 == 0 {
				check()
			}
		}
		check()
		order = rng.Perm(n)
		for i, id := range order {
			step(int64(id), false, true)
			if i%97 == 0 {
				check()
			}
		}
		if g.Len() != 0 || len(g.Nearest(1, 1, 3, nil)) != 0 {
			t.Fatalf("cycle %d: drained grid still holds %d points", cycle, g.Len())
		}
	}
	// 16 → 1296 cells by 3x steps and back by 4x steps: about four each way.
	if max := 3 * 2 * 4; rebuckets == 0 || rebuckets > max {
		t.Fatalf("%d rebuckets over 3 fill/drain cycles of %d points, want 1..%d", rebuckets, n, max)
	}
}
