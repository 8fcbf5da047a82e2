package sim

import (
	"math"
	"math/rand"
	"time"
)

// Rand wraps math/rand with the distributions the CloudFog evaluation uses:
// exponential fault lifetimes, bounded Pareto node capacities, lognormal
// downlinks and frame sizes, and uniform detection delays.
// Each concern of a simulation should own its own Rand stream so that
// changing one workload dimension does not perturb the others.
type Rand struct {
	*rand.Rand
	draws uint64
}

// NewRand returns a deterministic random stream for the given seed.
func NewRand(seed int64) *Rand {
	return &Rand{Rand: rand.New(rand.NewSource(seed))}
}

// Reseed puts the stream in the state NewRand(seed) builds it in — the same
// values from here on, the draw count back at zero — without allocating the
// 4.9 KB source a fresh stream costs. (rand.NewSource is a source seeded this
// same way, and Rand.Seed also discards the stream's buffered Read bytes.)
func (r *Rand) Reseed(seed int64) {
	r.Rand.Seed(seed)
	r.draws = 0
}

// Draws returns how many primitive draws this stream has made — each call
// through one of the counted wrappers below is one draw. The count is the
// flight recorder's cheapest divergence witness: two runs that consumed a
// stream differently cannot have made the same number of draws, so replay
// compares counts per stream before comparing any output bytes. Values
// produced are untouched; the counter is one register increment per draw.
func (r *Rand) Draws() uint64 { return r.draws }

// Float64 counts and forwards to math/rand.
func (r *Rand) Float64() float64 { r.draws++; return r.Rand.Float64() }

// Intn counts and forwards to math/rand.
func (r *Rand) Intn(n int) int { r.draws++; return r.Rand.Intn(n) }

// Int63 counts and forwards to math/rand.
func (r *Rand) Int63() int64 { r.draws++; return r.Rand.Int63() }

// Int63n counts and forwards to math/rand.
func (r *Rand) Int63n(n int64) int64 { r.draws++; return r.Rand.Int63n(n) }

// ExpFloat64 counts and forwards to math/rand.
func (r *Rand) ExpFloat64() float64 { r.draws++; return r.Rand.ExpFloat64() }

// NormFloat64 counts and forwards to math/rand.
func (r *Rand) NormFloat64() float64 { r.draws++; return r.Rand.NormFloat64() }

// Perm counts (as one draw) and forwards to math/rand.
func (r *Rand) Perm(n int) []int { r.draws++; return r.Rand.Perm(n) }

// Fork derives an independent stream from this one. The derived stream is a
// pure function of the parent's state, preserving determinism.
func (r *Rand) Fork() *Rand {
	return NewRand(r.Int63())
}

// SplitSeed derives the seed of an independent child stream from a parent
// seed and a stream index with one splitmix64 round. Unlike Fork it consumes
// no parent state: the result is a pure function of (seed, stream), so
// shards, epochs, and per-node streams can be derived in any order — or in
// parallel — and still agree bit for bit. Nest calls to split along more
// than one axis, e.g. SplitSeed(SplitSeed(seed, epoch), nodeID).
func SplitSeed(seed, stream int64) int64 {
	z := uint64(seed) + (uint64(stream)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Exp draws an exponentially distributed duration with the given rate
// (events per second). It panics if rate is not positive.
func (r *Rand) Exp(rate float64) time.Duration {
	if rate <= 0 {
		panic("sim: Exp requires positive rate")
	}
	return time.Duration(r.ExpFloat64() / rate * float64(time.Second))
}

// BoundedPareto draws from a Pareto distribution with shape alpha truncated
// to [lo, hi] by inverse-CDF sampling. The CloudFog evaluation draws node
// capacities from a Pareto with mean 5 and alpha = 1, which is only
// well-defined with an upper bound; CapacityPareto provides calibrated
// parameters.
func (r *Rand) BoundedPareto(lo, hi, alpha float64) float64 {
	if lo <= 0 || hi <= lo || alpha <= 0 {
		panic("sim: BoundedPareto requires 0 < lo < hi and positive alpha")
	}
	u := r.uniformOpen()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	// Inverse CDF of the bounded Pareto.
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// CapacityPareto draws a node capacity following the paper's model: a Pareto
// distribution with shape alpha = 1 bounded so the mean is approximately 5.
// With lo = 1 and hi = 150 the bounded Pareto mean is
// lo*hi/(hi-lo) * ln(hi/lo) = (150/149) * ln 150 ~= 5.04.
func (r *Rand) CapacityPareto() float64 {
	return r.BoundedPareto(1, 150, 1)
}

// LogNormal draws from a lognormal distribution with the given parameters of
// the underlying normal (mu, sigma).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// UniformDuration draws uniformly from (lo, hi].
func (r *Rand) UniformDuration(lo, hi time.Duration) time.Duration {
	if hi < lo {
		panic("sim: UniformDuration requires lo <= hi")
	}
	if hi == lo {
		return hi
	}
	span := float64(hi - lo)
	return hi - time.Duration(r.uniformOpen()*span)
}

// uniformOpen returns a uniform sample in the open interval (0, 1), avoiding
// the zero that would make inverse-CDF transforms blow up.
func (r *Rand) uniformOpen() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}
