package qoe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
)

// The digests in this file were recorded on the commit before the node
// simulation left the event engine (PR 19, 1c66543), with the same test
// bodies but for how a sim is built and advanced: they are what the engine's
// (at, seq) order computes, and the merge must compute it too.

// startSim builds a node over the players and starts it.
func startSim(t *testing.T, opts Options, uplink int64, players []PlayerSpec) *ServerSim {
	t.Helper()
	srv, err := NewServerSim(opts, uplink)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range players {
		if err := srv.AddPlayer(p); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	return srv
}

type digest struct{ h hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) ints(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) float(f float64) { d.ints(int64(math.Float64bits(f))) }

func (d digest) results(res []PlayerResult) {
	d.ints(int64(len(res)))
	for _, r := range res {
		sat := int64(0)
		if r.Satisfied {
			sat = 1
		}
		d.ints(r.ID, int64(r.GameID))
		d.float(r.Continuity)
		d.ints(sat, int64(r.MeanLatency), int64(r.FinalLevel), int64(r.LevelChanges),
			int64(r.Stalls), r.Segments, r.PacketsOnTime, r.PacketsTotal)
	}
}

func (d digest) lifecycle(srv *ServerSim) {
	gen, del, drop, inflight := srv.Lifecycle()
	d.ints(gen, del, drop, inflight, int64(srv.draws()))
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// squareImpair is a wire whose three impairments switch on and off on
// unrelated periods. The extra latency falls by 75 ms — more than two frames —
// every 400 ms, so a segment sent just after the edge overtakes the ones sent
// just before it; one loss window kills whole segments.
type squareImpair struct{}

func (squareImpair) ExtraLatency(now time.Duration) time.Duration {
	if now%(400*time.Millisecond) < 200*time.Millisecond {
		return 75 * time.Millisecond
	}
	return 0
}

func (squareImpair) LossFrac(now time.Duration) float64 {
	switch ph := now % (900 * time.Millisecond); {
	case ph < 100*time.Millisecond:
		return 0.35
	case ph < 130*time.Millisecond:
		return 1
	}
	return 0
}

func (squareImpair) BandwidthScale(now time.Duration) float64 {
	if now%(700*time.Millisecond) < 150*time.Millisecond {
		return 0.3
	}
	return 1
}

type goldenCase struct {
	opts    Options
	uplink  int64
	players []PlayerSpec
	horizon time.Duration
}

// goldenCases spans player counts, uplinks from starved to ample, the four
// strategy combinations and four variants: plain; capped ladders over long
// paths (several arrivals in flight per player) without size jitter; an
// impaired wire with estimates every two frames and a nanosecond; an impaired
// wire over long paths with the estimation interval at its one-frame minimum
// (the short intervals let ladders move inside the short horizons). No horizon
// is a multiple of the frame.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	rng := sim.NewRand(20)
	var cases []goldenCase
	for _, n := range []int{1, 2, 7, 60, 400} {
		horizon := 5*time.Second + 17*time.Millisecond + 1
		switch n {
		case 60:
			horizon = 3*time.Second + 217*time.Millisecond + 3
		case 400:
			horizon = 1*time.Second + 303*time.Millisecond + 7
		}
		for _, perPlayer := range []int64{350_000, 900_000, 2_500_000} {
			for combo := 0; combo < 4; combo++ {
				for variant := 0; variant < 4; variant++ {
					opts := DefaultOptions()
					opts.Adaptation = combo&1 != 0
					opts.Scheduling = combo&2 != 0
					opts.Seed = 1000 + int64(len(cases))
					opts.Warmup = horizon / 4
					far := variant == 1 || variant == 3
					switch variant {
					case 1:
						opts.SizeJitterSigma = 0
					case 2:
						opts.Impair = squareImpair{}
						opts.EstimationInterval = 2*opts.Stream.SegmentDuration + 1
					case 3:
						opts.Impair = squareImpair{}
						opts.EstimationInterval = opts.Stream.SegmentDuration
					}
					players := make([]PlayerSpec, n)
					for i := range players {
						span := 18
						if far {
							span = 133
						}
						players[i] = PlayerSpec{
							ID:           1000 + 7*int64(i),
							Game:         mustGame(t, 1+rng.Intn(5)),
							Latency:      time.Duration(8+rng.Intn(span)) * time.Millisecond,
							InboundDelay: time.Duration(rng.Intn(30)) * time.Millisecond,
						}
						if variant == 1 && i%2 == 0 {
							players[i].LevelCap = 1 + i%3
						}
					}
					cases = append(cases, goldenCase{opts, perPlayer * int64(n), players,
						horizon + time.Duration(variant)*time.Millisecond})
				}
			}
		}
	}
	return cases
}

// TestRunNodeGolden pins every observable of 240 node runs — each player's
// result, the segment lifecycle and the RNG draw count — to the digest the
// engine-backed simulation produced, through a hand-driven ServerSim, RunNode
// and one Pool reused across all of them.
func TestRunNodeGolden(t *testing.T) {
	const want = "1d3446e14a2ffb8ff64c01aef711d626e67d0c38d377da8f77e3e1da62a0c036"
	d := newDigest()
	pool := NewPool()
	var draws uint64
	cases := goldenCases(t)
	for i, c := range cases {
		srv := startSim(t, c.opts, c.uplink, c.players)
		srv.RunUntil(c.horizon)
		res := srv.Results()
		d.results(res)
		d.lifecycle(srv)
		draws += srv.draws()

		direct, err := RunNode(c.opts, c.uplink, c.players, c.horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, direct) {
			t.Fatalf("case %d: RunNode differs from the hand-driven sim", i)
		}
		pooled, err := pool.RunNode(c.opts, c.uplink, c.players, c.horizon)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, pooled) {
			t.Fatalf("case %d: pooled run differs from the hand-driven sim", i)
		}
		if pool.Draws() != draws {
			t.Fatalf("case %d: pool drew %d, fresh sims %d", i, pool.Draws(), draws)
		}
	}
	if len(cases) < 200 {
		t.Fatalf("only %d cases", len(cases))
	}
	if got := d.sum(); got != want {
		t.Fatalf("golden digest moved:\n got %s\nwant %s", got, want)
	}
}

// state digests what the engine order decides inside a node at a stopping
// point: each player's estimator, download tally, meters and receiver, and
// the node's lifecycle.
func (d digest) state(srv *ServerSim) {
	for _, ss := range srv.sessions {
		d.float(ss.est.Bytes())
		d.float(ss.recv.BufferedBytes())
		d.ints(int64(ss.bytesSinceTick), int64(ss.lastTick), ss.delivered, int64(ss.latSum),
			ss.meter.OnTime(), ss.meter.Total(), int64(ss.recv.StallCount()),
			int64(ss.encoder.Level().Level))
	}
	d.lifecycle(srv)
}

// edgeImpair adds one frame of latency during every other 200 ms: at each
// falling edge the last segment sent before it and the first sent after it
// reach their player at the same instant.
type edgeImpair struct{ frame time.Duration }

func (e edgeImpair) ExtraLatency(now time.Duration) time.Duration {
	if now/(200*time.Millisecond)%2 == 0 {
		return e.frame
	}
	return 0
}
func (edgeImpair) LossFrac(time.Duration) float64       { return 0 }
func (edgeImpair) BandwidthScale(time.Duration) float64 { return 1 }

// TestMergeBreaksTiesLikeTheEngine forces exact-nanosecond ties and pins how
// they break. A 40 ms frame and four players put generations at 0/10/20/30 ms,
// and every segment is 6000 bytes. Paths of 30, 70 and 110 ms plus a 10 ms
// transmission land arrivals exactly on their player's frame instants, hence
// on its estimate instants. The sim stops every 10 ms — on the ties — and the
// digest takes the internal state at each stop, then the sink's events:
// everything but deliveries in emission order (that is the merge order),
// deliveries per player (that is the landing order).
func TestMergeBreaksTiesLikeTheEngine(t *testing.T) {
	const want = "ca5fcbee2c27407ae038ad404301685c20a981cdfefad9c46470e9b0f849aedc"
	const frame = 40 * time.Millisecond
	g := mustGame(t, 4) // 1.2 Mbit/s: 6000 bytes per 40 ms frame
	players := make([]PlayerSpec, 4)
	for i, lat := range []int{30, 70, 110, 25} {
		players[i] = PlayerSpec{ID: int64(10 + i), Game: g,
			Latency: time.Duration(lat) * time.Millisecond, InboundDelay: 5 * time.Millisecond}
	}
	scenarios := []struct {
		name string
		// uplink 4.8 Mbit/s sends a segment in exactly 10 ms: every
		// transmission completes on the next player's generation instant,
		// which was scheduled first and fires first. 960 kbit/s takes 50 ms,
		// longer than a frame: the completion was scheduled first.
		uplink     int64
		scheduling bool
		// interval 10 frames: an arrival on an estimate instant was stamped
		// after that estimate and lands after it. One frame: the 70 and
		// 110 ms arrivals were stamped before it and land first, and every
		// estimate shares its instant with its player's generation.
		interval time.Duration
		impair   Impairment
		ties     int // generation/transmission, arrival/estimate or arrival/arrival
	}{
		{"transmission after generation", 4_800_000, true, 0, nil, 390},
		{"arrival after estimate", 4_800_000, true, 10 * frame, nil, 25},
		{"arrival before and after estimate", 4_800_000, true, frame, nil, 290},
		{"transmission before generation", 960_000, false, 0, nil, 75},
		{"two arrivals at once", 4_800_000, true, 0, edgeImpair{frame}, 36},
	}
	d := newDigest()
	for _, sc := range scenarios {
		opts := noJitter(DefaultOptions())
		opts.Stream.SegmentDuration = frame
		opts.Warmup = 500 * time.Millisecond
		opts.Sched.MaxQueueDelay = 100 * time.Millisecond // two segments on the slow uplink
		opts.Scheduling = sc.scheduling
		opts.Adaptation = sc.interval > 0
		opts.EstimationInterval = sc.interval
		opts.Impair = sc.impair
		// Estimates run, levels hold: a level move would change the segment
		// size and end the ties.
		opts.Adapt.UpStreak, opts.Adapt.DownStreak = 1<<30, 1<<30

		var merged []obs.Event
		perPlayer := make(map[int64][]obs.Event)
		opts.Obs = obs.NodeStatsIn(obs.NewRegistry())
		opts.Obs.Sink = func(ev obs.Event) {
			if ev.Kind == obs.EventSegmentDelivered {
				perPlayer[ev.Player] = append(perPlayer[ev.Player], ev)
				return
			}
			merged = append(merged, ev)
		}
		srv := startSim(t, opts, sc.uplink, players)
		for at := 10 * time.Millisecond; at <= 4*time.Second; at += 10 * time.Millisecond {
			srv.RunUntil(at)
			d.state(srv)
		}
		d.results(srv.Results())

		// The scenario must keep producing the ties it is there for.
		ties := 0
		event := func(ev obs.Event) { d.ints(int64(ev.Kind), int64(ev.At), ev.Player, ev.A, ev.B) }
		for i, ev := range merged {
			event(ev)
			if sc.interval == 0 && sc.impair == nil && i > 0 && ev.At == merged[i-1].At &&
				ev.Kind+merged[i-1].Kind == obs.EventSegmentGenerated+obs.EventSegmentTransmitted {
				ties++
			}
		}
		for i, p := range players {
			phase := frame * time.Duration(i) / time.Duration(len(players))
			for j, ev := range perPlayer[p.ID] {
				event(ev)
				switch {
				case sc.interval > 0 && (ev.At-phase)%sc.interval == 0:
					ties++
				case sc.impair != nil && j > 0 && ev.At == perPlayer[p.ID][j-1].At:
					ties++
				}
			}
		}
		if ties < sc.ties {
			t.Errorf("%s: only %d exact ties, want at least %d", sc.name, ties, sc.ties)
		}
	}
	if got := d.sum(); got != want {
		t.Fatalf("tie-break digest moved:\n got %s\nwant %s", got, want)
	}
}

// TestInFlightStaysBounded holds the memory side of landing arrivals late: a
// player without adaptation has only its generations to land them at, and
// must not hold more of the run for running longer. Paths of 50 to 140 ms
// keep two to five segments on the wire to each player.
func TestInFlightStaysBounded(t *testing.T) {
	opts := noJitter(BasicOptions())
	players := mixedPlayers(t, 12, 3)
	for i := range players {
		players[i].Latency += time.Duration(40+8*i) * time.Millisecond
	}
	footprint := func(horizon time.Duration) (segments, deepest int) {
		srv := startSim(t, opts, 40_000_000, players)
		srv.RunUntil(horizon)
		for _, ss := range srv.sessions {
			deepest = max(deepest, cap(ss.inflight))
		}
		return len(srv.segAll), deepest
	}
	shortSegs, shortDeep := footprint(8 * time.Second)
	longSegs, longDeep := footprint(60 * time.Second)
	if shortDeep < 2 {
		t.Fatalf("deepest in-flight list holds %d: the paths are too short to test anything", shortDeep)
	}
	if longSegs != shortSegs || longDeep != shortDeep {
		t.Fatalf("a 60 s run holds %d segments and in-flight lists up to %d deep, an 8 s run %d and %d",
			longSegs, longDeep, shortSegs, shortDeep)
	}
}

// TestNegativeLatencyArrivesAtOnce: a path latency below zero is clamped to an
// arrival at the moment the segment leaves the uplink, as the engine clamped
// a negative delay.
func TestNegativeLatencyArrivesAtOnce(t *testing.T) {
	run := func(latency time.Duration) []PlayerResult {
		players := mixedPlayers(t, 5, 9)
		for i := range players {
			players[i].Latency = latency
		}
		res, err := RunNode(BasicOptions(), 6_000_000, players, 8*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if at0, neg := run(0), run(-10*time.Millisecond); !reflect.DeepEqual(at0, neg) {
		t.Fatalf("a negative latency is not an immediate arrival:\n%+v\n%+v", at0, neg)
	}
}
