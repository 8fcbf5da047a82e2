// Package trace synthesizes a PlanetLab-like pairwise latency landscape.
//
// The CloudFog paper drives its PeerSim simulation with a latency trace
// collected from PlanetLab and validates on PlanetLab itself. We do not have
// that trace, so this package generates a deterministic synthetic
// equivalent. A one-way latency between two nodes decomposes into
//
//	oneway(a,b) = access(a) + access(b) + distance(a,b)·perKm + noise(a,b)
//
// where access(x) is a per-node last-mile delay (lognormal across nodes:
// most players have decent broadband, a heavy tail does not), noise(a,b) is
// a per-pair routing-quality component (lognormal: PlanetLab pairs routinely
// see tens of milliseconds beyond geographic distance), and the distance
// term models great-circle propagation with route inflation. Datacenters and
// edge servers get a small fixed access delay: their links are provisioned.
//
// Every component is a pure function of (Seed, node IDs), so the same
// "trace" can drive both the simulator and the loopback-TCP testbed, and a
// run is reproducible without storing an O(n²) matrix.
//
// Two of the four terms belong to a node, not to a pair: access(a) and
// access(b) depend on (Seed, ID, Class) alone, so a caller that probes one
// node against many resolves it once (Model.Resolve fills Endpoint.Access)
// and every later probe reads the term instead of redrawing it. The distance
// and noise terms are per pair and are computed per probe; Model.Within skips
// the noise draw for a pair whose other three terms already exceed the limit
// the caller would hold the sum to.
//
// Calibration targets (see trace_test.go): with 13 provisioned datacenters
// spread over the US and metro-clustered players, fewer than ~70% of players
// see one-way latency <= 80 ms to their closest datacenter — the Choy et al.
// measurement the paper builds its motivation on.
package trace

import (
	"math"
	"time"

	"cloudfog/internal/geo"
)

// NodeID identifies a node for latency-trace purposes. IDs must be stable
// across a run; they seed the deterministic per-node and per-pair draws.
type NodeID int64

// Class describes how well provisioned a node's network attachment is.
type Class int

const (
	// ClassNode is a regular end host (player or supernode): last-mile
	// access delay drawn from the lognormal access distribution.
	ClassNode Class = iota
	// ClassDatacenter is a cloud datacenter with a provisioned link.
	ClassDatacenter
	// ClassServer is an EdgeCloud-style deployed server: provisioned, like
	// a datacenter, but typically placed nearer users.
	ClassServer
	// ClassSupernode is a fog supernode: an end host, but one vetted for
	// stable, well-provisioned connectivity (paper §III-A1 requires
	// contributors to provide credentials and sign contracts, and
	// candidates are selected for their hardware and bandwidth), so its
	// last-mile delay distribution is tighter than a random player's.
	ClassSupernode
)

// Model generates the synthetic latency landscape. The zero value is not
// useful; start from DefaultModel.
type Model struct {
	// Seed makes all per-node and per-pair draws deterministic.
	Seed int64
	// Base is a fixed per-path overhead (serialization, first-hop).
	Base time.Duration
	// PerKm is the effective one-way propagation delay per kilometer,
	// including route inflation (fiber is ~5 µs/km; routes are ~1.6x
	// longer than geodesics).
	PerKm time.Duration
	// AccessMedian and AccessSigma parameterize the lognormal per-node
	// last-mile delay for ClassNode endpoints.
	AccessMedian time.Duration
	AccessSigma  float64
	// ProvisionedAccess is the access delay for datacenters and servers.
	ProvisionedAccess time.Duration
	// SupernodeAccessMedian and SupernodeAccessSigma parameterize the
	// lognormal last-mile delay for ClassSupernode endpoints.
	SupernodeAccessMedian time.Duration
	SupernodeAccessSigma  float64
	// NoiseMedian and NoiseSigma parameterize the lognormal per-pair
	// routing-quality component.
	NoiseMedian time.Duration
	NoiseSigma  float64
	// SupernodeBackboneFactor scales the pair noise on paths between a
	// supernode and provisioned infrastructure (datacenter or edge
	// server). Supernodes keep persistent, contracted connections to the
	// cloud over well-peered backbone routes (§III-A1 vets contributors),
	// so their update paths see far less routing badness than arbitrary
	// end-host pairs.
	SupernodeBackboneFactor float64
}

// DefaultModel returns the calibrated PlanetLab-like model used by all
// default experiment configurations.
func DefaultModel(seed int64) Model {
	return Model{
		Seed:                    seed,
		Base:                    1 * time.Millisecond,
		PerKm:                   8 * time.Microsecond, // 5 µs/km fiber × 1.6 route inflation
		AccessMedian:            14 * time.Millisecond,
		AccessSigma:             0.7,
		SupernodeAccessMedian:   7 * time.Millisecond,
		SupernodeAccessSigma:    0.5,
		ProvisionedAccess:       1 * time.Millisecond,
		NoiseMedian:             38 * time.Millisecond,
		NoiseSigma:              0.85,
		SupernodeBackboneFactor: 0.3,
	}
}

// bound is a Model read through a pointer: the form a probe loop holds, and
// the one place the model's arithmetic lives. Model is thirteen words; a
// method with a value receiver copies them per call, and one probe made four
// such calls or more. Every exported Model method forwards here, on its own
// copy.
type bound Model

// Access returns the deterministic last-mile delay of a node.
func (m Model) Access(id NodeID, class Class) time.Duration {
	return (*bound)(&m).accessOf(id, class)
}

func (m *bound) accessOf(id NodeID, class Class) time.Duration {
	switch class {
	case ClassDatacenter, ClassServer:
		return m.ProvisionedAccess
	case ClassSupernode:
		z := hashNormal(uint64(m.Seed), uint64(id), 0x9e3779b97f4a7c15)
		return time.Duration(float64(m.SupernodeAccessMedian) * math.Exp(m.SupernodeAccessSigma*z))
	default:
		z := hashNormal(uint64(m.Seed), uint64(id), 0x9e3779b97f4a7c15)
		return time.Duration(float64(m.AccessMedian) * math.Exp(m.AccessSigma*z))
	}
}

// PairNoise returns the deterministic routing-quality component for the
// unordered pair (a, b). It is symmetric: PairNoise(a,b) == PairNoise(b,a).
func (m Model) PairNoise(a, b NodeID) time.Duration {
	return (*bound)(&m).pairNoise(a, b)
}

func (m *bound) pairNoise(a, b NodeID) time.Duration {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	z := hashNormal(uint64(m.Seed), uint64(lo), uint64(hi))
	d := float64(m.NoiseMedian) * math.Exp(m.NoiseSigma*z)
	return time.Duration(d)
}

// Endpoint bundles what the model needs to know about one end of a path.
type Endpoint struct {
	ID    NodeID
	Pos   geo.Point
	Class Class
	// Access is the node's last-mile delay as Prober.Resolve filled it in.
	// Zero means unresolved: the model then derives the term per probe, so an
	// endpoint built from ID, Pos and Class alone measures the same as a
	// resolved one. A resolved endpoint is only good for the source that
	// resolved it.
	Access time.Duration
}

// Source supplies one-way latencies between endpoints. The synthetic Model
// implements it for simulation; the testbed package implements it with real
// TCP round-trip measurements over injected delays, so the same CloudFog
// code runs against both (the paper's PeerSim + PlanetLab split).
type Source interface {
	OneWay(a, b Endpoint) time.Duration
}

// Prober is a Source that answers the assignment protocol's question — is
// this candidate within the player's limit, and if so how far — without
// recomputing what a probe does not need. Model implements it natively;
// AsProber adapts any other Source, and is how a caller with many probes to
// make should hold a Model too.
type Prober interface {
	Source
	// Resolve returns e with Access set to this source's per-node term for
	// it, replacing whatever e carried: zero when the source keeps none.
	Resolve(e Endpoint) Endpoint
	// Within reports whether OneWay(a, b) <= limit, and returns that latency
	// when it is; the duration beside a false is not the latency.
	Within(a, b Endpoint, limit time.Duration) (time.Duration, bool)
}

var _ Prober = Model{}

// AsProber returns a Prober for src to be bound once and asked many times: a
// private copy of a Model, read through a pointer; src itself when it is some
// other Prober; and otherwise one that resolves nothing and answers Within by
// measuring and comparing.
func AsProber(src Source) Prober {
	switch p := src.(type) {
	case Model:
		return (*bound)(&p)
	case Prober:
		return p
	}
	return measured{src}
}

// measured adapts a Source with no per-node terms of its own: a test double,
// or the testbed's measured latencies.
type measured struct{ Source }

func (measured) Resolve(e Endpoint) Endpoint {
	e.Access = 0
	return e
}

func (s measured) Within(a, b Endpoint, limit time.Duration) (time.Duration, bool) {
	d := s.OneWay(a, b)
	return d, d <= limit
}

// Resolve fills in the endpoint's last-mile delay, the one term of a probe
// that hashes and draws a lognormal yet depends on the node alone.
func (m Model) Resolve(e Endpoint) Endpoint { return (*bound)(&m).Resolve(e) }

func (m *bound) Resolve(e Endpoint) Endpoint {
	e.Access = m.accessOf(e.ID, e.Class)
	return e
}

// OneWay returns the one-way latency from a to b: Within, with no limit to
// stop at. It is symmetric and deterministic for a given model seed.
func (m Model) OneWay(a, b Endpoint) time.Duration { return (*bound)(&m).OneWay(a, b) }

func (m *bound) OneWay(a, b Endpoint) time.Duration {
	d, _ := m.Within(a, b, math.MaxInt64)
	return d
}

// Within is OneWay held to a limit. Every term of the sum is a non-negative
// whole number of nanoseconds, so the part that needs no per-pair draw —
// base, both access terms, propagation — is an exact lower bound: a pair
// already past the limit on it is rejected without the draw.
func (m Model) Within(a, b Endpoint, limit time.Duration) (time.Duration, bool) {
	return (*bound)(&m).Within(a, b, limit)
}

func (m *bound) Within(a, b Endpoint, limit time.Duration) (time.Duration, bool) {
	if a.ID == b.ID {
		return m.Base, m.Base <= limit
	}
	d := m.Base + m.access(a) + m.access(b) +
		time.Duration(a.Pos.DistanceTo(b.Pos)*float64(m.PerKm))
	if d > limit {
		return d, false
	}
	noise := m.pairNoise(a.ID, b.ID)
	if m.SupernodeBackboneFactor > 0 && supernodeBackbone(a.Class, b.Class) {
		noise = time.Duration(float64(noise) * m.SupernodeBackboneFactor)
	}
	d += noise
	return d, d <= limit
}

// access reads a resolved endpoint's last-mile delay and derives an
// unresolved one's.
func (m *bound) access(e Endpoint) time.Duration {
	if e.Access != 0 {
		return e.Access
	}
	return m.accessOf(e.ID, e.Class)
}

// supernodeBackbone reports whether the pair is a supernode talking to
// provisioned infrastructure.
func supernodeBackbone(a, b Class) bool {
	provisioned := func(c Class) bool { return c == ClassDatacenter || c == ClassServer }
	return (a == ClassSupernode && provisioned(b)) || (b == ClassSupernode && provisioned(a))
}

// RTT returns the round-trip latency between a and b (twice the one-way
// latency; the synthetic landscape is symmetric).
func (m Model) RTT(a, b Endpoint) time.Duration {
	return 2 * m.OneWay(a, b)
}

// splitmix64 is the SplitMix64 mixing function: a fast, high-quality
// avalanche hash used to derive deterministic per-node/per-pair randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashNormal derives a standard-normal variate from three 64-bit inputs via
// SplitMix64 mixing and the Box–Muller transform.
func hashNormal(a, b, c uint64) float64 {
	h1 := splitmix64(a ^ splitmix64(b) ^ splitmix64(splitmix64(c)))
	h2 := splitmix64(h1)
	u1 := uniform64(h1)
	u2 := uniform64(h2)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// uniform64 maps a 64-bit hash to a uniform float in (0, 1).
func uniform64(h uint64) float64 {
	u := (float64(h>>11) + 0.5) / (1 << 53)
	return u
}
