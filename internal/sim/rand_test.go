package sim

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestExpMeanMatchesRate(t *testing.T) {
	r := NewRand(1)
	const rate = 5.0 // 5 events/sec => mean 200ms
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Exp(rate)
	}
	mean := sum / n
	if mean < 180*time.Millisecond || mean > 220*time.Millisecond {
		t.Fatalf("Exp(5) mean = %v, want ~200ms", mean)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	NewRand(1).Exp(0)
}

func TestBoundedParetoStaysInBounds(t *testing.T) {
	r := NewRand(4)
	for i := 0; i < 20000; i++ {
		v := r.BoundedPareto(1, 150, 1)
		if v < 1 || v > 150 {
			t.Fatalf("BoundedPareto out of bounds: %v", v)
		}
	}
}

func TestCapacityParetoMeanNearFive(t *testing.T) {
	// The paper's node capacities follow a Pareto with mean 5 (alpha = 1);
	// our bounded calibration targets lo*hi/(hi-lo)*ln(hi/lo) ~= 5.04.
	r := NewRand(5)
	sum := 0.0
	const n = 400000
	for i := 0; i < n; i++ {
		sum += r.CapacityPareto()
	}
	mean := sum / n
	if mean < 4.5 || mean > 5.6 {
		t.Fatalf("CapacityPareto mean = %v, want ~5", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	// Median of LogNormal(mu, sigma) is e^mu.
	r := NewRand(10)
	const n = 100000
	above := 0
	for i := 0; i < n; i++ {
		if r.LogNormal(1, 0.5) > math.E {
			above++
		}
	}
	frac := float64(above) / n
	if frac < 0.48 || frac > 0.52 {
		t.Fatalf("LogNormal median check: %.3f above e^mu, want ~0.5", frac)
	}
}

func TestUniformDurationRange(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		v := r.UniformDuration(2*time.Hour, 5*time.Hour)
		if v <= 2*time.Hour-time.Nanosecond || v > 5*time.Hour {
			t.Fatalf("UniformDuration out of (2h,5h]: %v", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRand(13)
	b := a.Fork()
	c := a.Fork()
	// Two forks from the same parent must produce different streams.
	same := true
	for i := 0; i < 10; i++ {
		if b.Int63() != c.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("forked streams are identical")
	}
}

func TestForkDeterminism(t *testing.T) {
	seq := func() []int64 {
		r := NewRand(99).Fork()
		out := make([]int64, 5)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Fork is not deterministic")
		}
	}
}

// TestReseedMatchesNewRand: a used stream re-seeded is a fresh stream — the
// same values from every distribution the node simulation and the worlds draw
// from, and the same draw count, over 10 000 draws — whatever it was seeded
// with and however far (including mid-way through a buffered Read) it had run.
func TestReseedMatchesNewRand(t *testing.T) {
	used := NewRand(1)
	for _, seed := range []int64{0, 1, -7, 2026, 1 << 40, SplitSeed(2026, 3)} {
		for i := 0; i < 137; i++ {
			used.NormFloat64()
			used.Perm(5)
		}
		var odd [3]byte
		used.Read(odd[:])
		used.Reseed(seed)
		fresh := NewRand(seed)
		if used.Draws() != 0 {
			t.Fatalf("seed %d: %d draws counted right after Reseed", seed, used.Draws())
		}
		for i := 0; i < 10_000; i++ {
			var a, b any
			switch i % 5 {
			case 0:
				a, b = used.Float64(), fresh.Float64()
			case 1:
				a, b = used.NormFloat64(), fresh.NormFloat64()
			case 2:
				a, b = used.Intn(1+i), fresh.Intn(1+i)
			case 3:
				a, b = used.Perm(7), fresh.Perm(7)
			case 4:
				a, b = used.LogNormal(-0.045, 0.3), fresh.LogNormal(-0.045, 0.3)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, draw %d: re-seeded stream gives %v, a fresh one %v", seed, i, a, b)
			}
		}
		if used.Draws() != fresh.Draws() || used.Draws() != 10_000 {
			t.Fatalf("seed %d: re-seeded stream counts %d draws, fresh %d", seed, used.Draws(), fresh.Draws())
		}
		var ra, rb [5]byte
		used.Read(ra[:])
		fresh.Read(rb[:])
		if ra != rb {
			t.Fatalf("seed %d: Read differs after Reseed: %v vs %v", seed, ra, rb)
		}
	}
}
