package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

func TestOneWaySymmetric(t *testing.T) {
	m := DefaultModel(1)
	a := Endpoint{ID: 1, Pos: geo.Point{X: 100, Y: 100}, Class: ClassNode}
	b := Endpoint{ID: 2, Pos: geo.Point{X: 2000, Y: 1500}, Class: ClassDatacenter}
	if m.OneWay(a, b) != m.OneWay(b, a) {
		t.Fatal("OneWay not symmetric")
	}
}

func TestOneWayDeterministic(t *testing.T) {
	a := Endpoint{ID: 7, Pos: geo.Point{X: 10, Y: 20}, Class: ClassNode}
	b := Endpoint{ID: 8, Pos: geo.Point{X: 300, Y: 400}, Class: ClassNode}
	m1, m2 := DefaultModel(42), DefaultModel(42)
	if m1.OneWay(a, b) != m2.OneWay(a, b) {
		t.Fatal("same seed produced different latency")
	}
	m3 := DefaultModel(43)
	if m1.PairNoise(7, 8) == m3.PairNoise(7, 8) {
		t.Fatal("different seeds produced identical pair noise (vanishingly unlikely)")
	}
}

func TestSelfLatencyIsBase(t *testing.T) {
	m := DefaultModel(1)
	a := Endpoint{ID: 5, Pos: geo.Point{X: 1, Y: 1}, Class: ClassNode}
	if got := m.OneWay(a, a); got != m.Base {
		t.Fatalf("self latency = %v, want base %v", got, m.Base)
	}
}

func TestAccessClassDistinction(t *testing.T) {
	m := DefaultModel(1)
	if got := m.Access(3, ClassDatacenter); got != m.ProvisionedAccess {
		t.Fatalf("datacenter access = %v, want %v", got, m.ProvisionedAccess)
	}
	if got := m.Access(3, ClassServer); got != m.ProvisionedAccess {
		t.Fatalf("server access = %v, want %v", got, m.ProvisionedAccess)
	}
	// Regular node access is stable per node.
	if m.Access(3, ClassNode) != m.Access(3, ClassNode) {
		t.Fatal("node access not stable")
	}
}

func TestDistanceIncreasesLatency(t *testing.T) {
	m := DefaultModel(1)
	a := Endpoint{ID: 1, Pos: geo.Point{X: 0, Y: 0}, Class: ClassDatacenter}
	near := Endpoint{ID: 2, Pos: geo.Point{X: 100, Y: 0}, Class: ClassDatacenter}
	far := Endpoint{ID: 2, Pos: geo.Point{X: 4000, Y: 0}, Class: ClassDatacenter}
	// Same IDs => same access and noise; only distance differs.
	if m.OneWay(a, near) >= m.OneWay(a, far) {
		t.Fatal("longer distance did not increase latency")
	}
	wantDelta := time.Duration(3900 * float64(m.PerKm))
	gotDelta := m.OneWay(a, far) - m.OneWay(a, near)
	if gotDelta != wantDelta {
		t.Fatalf("distance delta = %v, want %v", gotDelta, wantDelta)
	}
}

func TestAccessMedianCalibration(t *testing.T) {
	m := DefaultModel(9)
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.Access(NodeID(i), ClassNode) <= m.AccessMedian {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("access median calibration off: %.3f below median", frac)
	}
}

func TestPairNoiseMedianCalibration(t *testing.T) {
	m := DefaultModel(10)
	below := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.PairNoise(NodeID(i), NodeID(i+100000)) <= m.NoiseMedian {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("noise median calibration off: %.3f below median", frac)
	}
}

// TestChoyCalibration reproduces the measurement the paper's motivation
// rests on (Choy et al., NetGames'12): with ~13 provisioned datacenters in
// the US, fewer than 70% of end users see latency within the 80 ms network
// budget — but well over half do.
func TestChoyCalibration(t *testing.T) {
	m := DefaultModel(2026)
	r := sim.NewRand(7)
	region := geo.USRegion()
	dcPts := geo.SpreadPoints(region, 13, r)
	dcs := make([]Endpoint, len(dcPts))
	for i, p := range dcPts {
		dcs[i] = Endpoint{ID: NodeID(1_000_000 + i), Pos: p, Class: ClassDatacenter}
	}
	placer := geo.DefaultUSPlacer()
	const players = 4000
	covered := 0
	for i := 0; i < players; i++ {
		p := Endpoint{ID: NodeID(i), Pos: placer.Place(r), Class: ClassNode}
		// Player connects to the geographically closest datacenter, as in
		// the paper's coverage definition.
		best := dcs[0]
		for _, dc := range dcs[1:] {
			if p.Pos.DistanceTo(dc.Pos) < p.Pos.DistanceTo(best.Pos) {
				best = dc
			}
		}
		if m.OneWay(p, best) <= 80*time.Millisecond {
			covered++
		}
	}
	frac := float64(covered) / players
	if frac >= 0.70 {
		t.Fatalf("13-DC coverage at 80ms = %.3f, want < 0.70 (Choy et al.)", frac)
	}
	if frac < 0.50 {
		t.Fatalf("13-DC coverage at 80ms = %.3f, implausibly low (want >= 0.50)", frac)
	}
}

func TestRTTIsTwiceOneWay(t *testing.T) {
	m := DefaultModel(1)
	a := Endpoint{ID: 1, Pos: geo.Point{X: 0, Y: 0}, Class: ClassNode}
	b := Endpoint{ID: 2, Pos: geo.Point{X: 500, Y: 500}, Class: ClassNode}
	if m.RTT(a, b) != 2*m.OneWay(a, b) {
		t.Fatal("RTT != 2 * OneWay")
	}
}

func TestLatenciesArePositive(t *testing.T) {
	m := DefaultModel(5)
	r := sim.NewRand(6)
	placer := geo.DefaultUSPlacer()
	for i := 0; i < 5000; i++ {
		a := Endpoint{ID: NodeID(i), Pos: placer.Place(r), Class: ClassNode}
		b := Endpoint{ID: NodeID(i + 100000), Pos: placer.Place(r), Class: ClassNode}
		if l := m.OneWay(a, b); l <= 0 {
			t.Fatalf("non-positive latency %v", l)
		}
	}
}

// TestSupernodeSelectionCollapsesNoise verifies the property the fog design
// relies on: the minimum latency over many nearby candidate supernodes is
// far below the latency to a datacenter chosen from a small fixed set.
func TestSupernodeSelectionCollapsesNoise(t *testing.T) {
	m := DefaultModel(11)
	r := sim.NewRand(12)
	placer := geo.DefaultUSPlacer()

	const trials = 500
	var sumSN, sumDC time.Duration
	for trial := 0; trial < trials; trial++ {
		player := Endpoint{ID: NodeID(900000 + trial), Pos: placer.Place(r), Class: ClassNode}

		// Min latency over 10 candidate supernodes within ~200 km.
		bestSN := time.Duration(1 << 62)
		for i := 0; i < 10; i++ {
			sn := Endpoint{
				ID:    NodeID(500000 + trial*10 + i),
				Pos:   geo.USRegion().Clamp(geo.Point{X: player.Pos.X + float64(i*20), Y: player.Pos.Y + 10}),
				Class: ClassNode,
			}
			if l := m.OneWay(player, sn); l < bestSN {
				bestSN = l
			}
		}
		// One datacenter 1500 km away.
		dc := Endpoint{
			ID:    NodeID(1000000 + trial),
			Pos:   geo.USRegion().Clamp(geo.Point{X: player.Pos.X + 1500, Y: player.Pos.Y}),
			Class: ClassDatacenter,
		}
		sumSN += bestSN
		sumDC += m.OneWay(player, dc)
	}
	if sumSN >= sumDC {
		t.Fatalf("mean min-over-supernodes latency (%v) not below mean remote-DC latency (%v)",
			sumSN/trials, sumDC/trials)
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	m := DefaultModel(12345)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", got, m)
	}
	// Reloaded models produce identical latencies.
	a := Endpoint{ID: 1, Pos: geo.Point{X: 100, Y: 200}, Class: ClassNode}
	b := Endpoint{ID: 2, Pos: geo.Point{X: 900, Y: 300}, Class: ClassSupernode}
	if got.OneWay(a, b) != m.OneWay(a, b) {
		t.Fatal("reloaded model draws different latencies")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"unknown_field": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Load(strings.NewReader(`{"seed":1,"noise_sigma":-3}`)); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := Load(strings.NewReader(`{"seed":1,"noise_median_ns":-3}`)); err == nil {
		t.Fatal("negative noise median accepted: Within's lower bound needs every term non-negative")
	}
}

func TestSaveLoadPreservesPairwiseLatencies(t *testing.T) {
	// Property over a whole population: a reloaded model reproduces the
	// full pairwise latency matrix bit-for-bit, across every endpoint
	// class, because all draws are pure functions of the saved parameters.
	m := DefaultModel(777)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(42)
	classes := []Class{ClassNode, ClassSupernode, ClassDatacenter}
	eps := make([]Endpoint, 40)
	for i := range eps {
		eps[i] = Endpoint{
			ID:    NodeID(i + 1),
			Pos:   geo.Point{X: rng.Float64() * 4000, Y: rng.Float64() * 2500},
			Class: classes[i%len(classes)],
		}
	}
	for i, a := range eps {
		for j, b := range eps {
			if want, have := m.OneWay(a, b), got.OneWay(a, b); want != have {
				t.Fatalf("latency [%d][%d] diverged after reload: %v vs %v", i, j, want, have)
			}
		}
	}
}

// probeCase is one randomly drawn probe: a model and the two ends of a path.
type probeCase struct {
	m    Model
	a, b Endpoint
}

// probeCases draws n probes over random model seeds, IDs from the player,
// supernode and datacenter ranges, positions across the US region and all
// four classes — every endpoint a plain literal, Access unset. One probe in
// sixteen is a node against itself.
func probeCases(n int) []probeCase {
	rng := sim.NewRand(20261002)
	region := geo.USRegion()
	end := func() Endpoint {
		return Endpoint{
			ID:    NodeID(rng.Intn(3_000_000)),
			Pos:   geo.Point{X: rng.Float64() * region.Width, Y: rng.Float64() * region.Height},
			Class: Class(rng.Intn(4)),
		}
	}
	cases := make([]probeCase, n)
	for i := range cases {
		c := probeCase{m: DefaultModel(rng.Int63()), a: end(), b: end()}
		if rng.Intn(16) == 0 {
			c.b.ID = c.a.ID
		}
		cases[i] = c
	}
	return cases
}

// TestOneWayGolden pins what an endpoint literal without Access measures to
// what it measured before Endpoint had the field: the digest was recorded at
// PR 20, when OneWay drew both access terms and the pair noise on every call.
func TestOneWayGolden(t *testing.T) {
	const want = "2fc47fac99240dc3152c6b0c4bead0c3a82989f6388200b38d915d4cc3ccec0d"
	h := sha256.New()
	var b [8]byte
	for _, c := range probeCases(4000) {
		binary.BigEndian.PutUint64(b[:], uint64(c.m.OneWay(c.a, c.b)))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("OneWay digest over 4000 random probes = %s, want %s", got, want)
	}
}

// TestResolvedEndpointsMeasureAlike: resolving an endpoint changes what a
// probe costs, never what it measures — resolved, half-resolved and
// unresolved pairs agree in both argument orders — and resolving twice is
// resolving once. What a resolved endpoint carries is what the probe reads: a
// term moved by a millisecond moves the latency by a millisecond.
func TestResolvedEndpointsMeasureAlike(t *testing.T) {
	for i, c := range probeCases(4000) {
		ra, rb := c.m.Resolve(c.a), c.m.Resolve(c.b)
		if ra.Access != c.m.Access(c.a.ID, c.a.Class) || c.m.Resolve(ra) != ra {
			t.Fatalf("case %d: Resolve(%+v) = %+v, resolved again %+v", i, c.a, ra, c.m.Resolve(ra))
		}
		// A term resolved under some other model is replaced, not kept.
		stale := c.a
		stale.Access = time.Hour
		if c.m.Resolve(stale) != ra {
			t.Fatalf("case %d: Resolve kept a stale access term: %+v", i, c.m.Resolve(stale))
		}
		want := c.m.OneWay(c.a, c.b)
		for _, pair := range [][2]Endpoint{{ra, rb}, {ra, c.b}, {c.a, rb}, {c.a, c.b}} {
			if got, rev := c.m.OneWay(pair[0], pair[1]), c.m.OneWay(pair[1], pair[0]); got != want || rev != want {
				t.Fatalf("case %d: OneWay(%+v, %+v) = %v, reversed %v, unresolved %v",
					i, pair[0], pair[1], got, rev, want)
			}
		}
		moved := ra
		moved.Access += time.Millisecond
		if got := c.m.OneWay(moved, c.b); c.a.ID != c.b.ID && got != want+time.Millisecond {
			t.Fatalf("case %d: OneWay = %v with the resolved term a millisecond up, %v without: the term was derived again, not read",
				i, got, want)
		}
	}
}

// TestWithinAgreesWithOneWay: Within(a, b, limit) answers OneWay(a, b) <=
// limit and returns that latency whenever the answer is yes — at limits either
// side of the latency itself, either side of its noise-free part (where the
// native arm stops before the pair draw), zero and negative — natively, by
// value and as AsProber binds a Model, through AsProber over a Source that is
// only a Source, and for resolved and unresolved endpoints alike. One model in eight has no pair noise, so the
// latency is its noise-free part and a limit equal to it must still admit.
func TestWithinAgreesWithOneWay(t *testing.T) {
	if p, ok := AsProber(DefaultModel(1)).(*bound); !ok || Model(*p) != DefaultModel(1) {
		t.Fatalf("AsProber(Model) = %T, want an equal model behind a pointer and nothing wrapped around it", AsProber(DefaultModel(1)))
	}
	for i, c := range probeCases(4000) {
		if i%8 == 0 {
			c.m.NoiseMedian = 0
		}
		ra, rb := c.m.Resolve(c.a), c.m.Resolve(c.b)
		plain := AsProber(sourceOnly{c.m})
		if _, adapted := plain.(measured); !adapted {
			t.Fatal("AsProber saw through a plain Source")
		}
		if stale := ra; plain.Resolve(stale) != c.a {
			t.Fatalf("case %d: a source with no per-node terms resolved %+v to %+v, want the term cleared",
				i, stale, plain.Resolve(stale))
		}
		d := c.m.OneWay(c.a, c.b)
		// The noise-free part is what the same path measures with the pair
		// term switched off.
		quiet := c.m
		quiet.NoiseMedian = 0
		floor := quiet.OneWay(c.a, c.b)
		if floor > d {
			t.Fatalf("case %d: noise-free part %v above OneWay %v", i, floor, d)
		}
		for _, limit := range []time.Duration{d - 1, d, d + 1, floor - 1, floor, floor + 1, 0, -1, -time.Hour} {
			for _, pr := range []Prober{c.m, AsProber(c.m), plain} {
				for _, pair := range [][2]Endpoint{{ra, rb}, {c.a, rb}, {c.a, c.b}, {rb, ra}} {
					got, ok := pr.Within(pair[0], pair[1], limit)
					if ok != (d <= limit) || (ok && got != d) {
						t.Fatalf("case %d: %T.Within(%+v, %+v, %v) = (%v, %v), OneWay = %v",
							i, pr, pair[0], pair[1], limit, got, ok, d)
					}
				}
			}
		}
	}
}

// sourceOnly hides a Model's Prober methods, the way a test double or the
// testbed's measured source has none.
type sourceOnly struct{ m Model }

func (s sourceOnly) OneWay(a, b Endpoint) time.Duration { return s.m.OneWay(a, b) }
