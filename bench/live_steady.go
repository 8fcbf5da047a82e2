package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"cloudfog/bench/probe"
	"cloudfog/internal/game"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

const (
	steadySupernodes = 4
	// Two probe players per supernode: 8 streams and 8 action links give
	// 170 latency samples a second, so a 20 s run clears tailMinSamples
	// with a margin and every supernode phase carries the same weight.
	steadyPlayers = 2 * steadySupernodes
	steadyObjects = 40
	// steadyActionEvery is each player's input period; it is no multiple of
	// the frame time, so actions sweep every phase of both tickers.
	steadyActionEvery = 47 * time.Millisecond

	liveGameID     = 4 // 1.2 Mbit/s: 5000-byte segments at 30 fps
	liveViewRadius = 600.0
	liveFPS        = 30
	// minContinuity is the share of fps × duration segments every probe
	// stream must carry for the run to count. A quiet deployment delivers
	// 99–100% (the probe's own test demands 97%); a busy box drops render
	// ticks, and that loss is what work_per_s is there to report, so only a
	// stream that has plainly stalled fails the run.
	minContinuity = 0.90
	// observerID is the supernode ID the traced run's observer subscribes
	// under; no deployment here has that many supernodes.
	observerID = 1_000_000
)

// startStratified starts k tick-driven nodes so that their tickers sit at
// evenly spaced phases of the cloud's tick: node i at (2i+1)/(2k) of a frame.
// Cloud tick and render tick are both frame-period tickers whose relative
// phase is frozen when the node starts, and the response latency swings by
// most of a frame with it (18 ms in phase, 32 ms half a frame off in the
// prototype), so a change that merely moved start-up timing would otherwise
// move op_ms. The phases stay clear of 0, where a stamp arrives on the render
// tick and microseconds decide a whole frame. Starts are absolute-time
// sleeps from cloudStart with two frames of slack per node, so time spent
// before a start (e.startJitter, or a slower harness) does not move a phase;
// a start that would still come late keeps its phase a frame further on.
func startStratified(cloudStart time.Time, k int, e env, start func(i int) error) error {
	for i := 0; i < k; i++ {
		if e.startJitter != nil {
			time.Sleep(e.startJitter())
		}
		at := cloudStart.Add(time.Duration(3+2*i)*frame + time.Duration(2*i+1)*frame/time.Duration(2*k))
		for time.Until(at) < time.Millisecond {
			at = at.Add(frame)
		}
		sleepUntil(at)
		if err := start(i); err != nil {
			return err
		}
	}
	return nil
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

func randomPoint(rng *rand.Rand, b world.Rect) world.Vec2 {
	return world.Vec2{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// steady is the live-steady deployment: a cloud, phase-stratified supernodes
// and probe players streaming from them.
type steady struct {
	rng     *rand.Rand
	bounds  world.Rect
	cloud   *live.Cloud
	sns     []*live.Supernode
	players []*probe.Player
	obs     *probe.Observer // attached by the first traced section

	stamp    time.Duration // last action stamp issued
	problems []string
}

func setupSteady(e env) (deployment, error) {
	s := &steady{rng: e.rand(1), bounds: world.DefaultConfig().Bounds}
	if err := s.start(e); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *steady) start(e env) error {
	g, err := game.ByID(liveGameID)
	if err != nil {
		return err
	}
	s.cloud, err = live.NewCloud(live.Config{Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: frame})
	if err != nil {
		return err
	}
	cloudStart := time.Now()
	s.cloud.World(func(w *world.World) {
		for i := 0; i < steadyObjects; i++ {
			w.SpawnObject(randomPoint(s.rng, s.bounds))
		}
	})
	err = startStratified(cloudStart, steadySupernodes, e, func(i int) error {
		sn, err := live.NewSupernode(live.Config{
			Role: live.RoleSupernode, ID: int64(i + 1), Addr: "127.0.0.1:0",
			CloudAddr: s.cloud.Addr(), FPS: liveFPS,
		})
		if err == nil {
			s.sns = append(s.sns, sn)
		}
		return err
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < steadyPlayers; i++ {
		view := randomPoint(s.rng, s.bounds)
		p, err := probe.DialPlayer(ctx, s.cloud.Addr(), s.sns[i%steadySupernodes].Addr(), proto.JoinStream{
			Player: int64(i + 1), GameID: liveGameID,
			ViewX: view.X, ViewY: view.Y, ViewR: liveViewRadius, LevelCap: uint8(g.StartLevel),
		})
		if err != nil {
			return err
		}
		s.players = append(s.players, p)
	}

	// Warm-up: 30 frames on every stream, then one untimed action per
	// player all the way round.
	err = waitFor(5*time.Second, "30 frames on every stream", func() bool {
		for _, p := range s.players {
			if p.Segments() < 30 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	warm := make([]time.Duration, len(s.players))
	for i, p := range s.players {
		s.stamp++
		warm[i] = s.stamp
		if err := p.Act(s.stamp, s.move()); err != nil {
			return err
		}
	}
	return waitFor(2*time.Second, "the warm-up actions to come back", func() bool {
		for i, p := range s.players {
			if _, ok := probe.First(p.Echoes(), warm[i]); !ok {
				return false
			}
		}
		return true
	})
}

func (s *steady) move() world.Action {
	return world.Action{Kind: world.ActionMove, Target: randomPoint(s.rng, s.bounds)}
}

type steadyAction struct {
	player      int
	stamp       time.Duration
	due         time.Time
	begun, sent time.Time
	failed      bool
}

func (s *steady) measure(length time.Duration, tr *tracer) (*measurement, error) {
	if tr != nil && s.obs == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		obs, err := probe.DialObserver(ctx, s.cloud.Addr(), observerID)
		cancel()
		if err != nil {
			return nil, err
		}
		s.obs = obs
		if err := waitFor(2*time.Second, "the observer's first deltas", func() bool { return obs.Deltas() >= 2 }); err != nil {
			return nil, err
		}
	}
	n := len(s.players)
	period := steadyActionEvery / time.Duration(n)
	acts := make([]steadyAction, 0, int(length/period)+1)
	seg0 := make([]int64, n)

	// One sender walks a merged grid: player i's actions are due every
	// steadyActionEvery, offset i/n of that.
	loop := newOpenLoop(time.Now().Add(10*time.Millisecond), period, length)
	sleepUntil(loop.start)
	for i, p := range s.players {
		seg0[i] = p.Segments()
	}
	g := startGauge(gaugeEvery, func() float64 {
		var segs int64
		for _, p := range s.players {
			segs += p.Segments()
		}
		return float64(segs)
	})
	for {
		i, due, late, ok := loop.wait()
		if !ok {
			break
		}
		s.stamp++
		a := steadyAction{player: i % n, stamp: s.stamp, due: due, begun: due.Add(late)}
		a.failed = s.players[a.player].Act(a.stamp, s.move()) != nil
		a.sent = time.Now()
		acts = append(acts, a)
	}
	sleepUntil(loop.end)
	m := &measurement{attempted: len(acts), wall: time.Since(loop.start)}
	m.cpuUsPerWork = g.finish()
	for i, p := range s.players {
		got := p.Segments() - seg0[i]
		m.work += float64(got)
		// One frame of slack: the section's edges fall anywhere in a frame.
		if want := minContinuity*liveFPS*length.Seconds() - 1; float64(got) < want {
			s.problems = append(s.problems, fmt.Sprintf("player %d got %d segments in %v, want at least %.0f", p.ID, got, length, want))
		}
	}
	// The last actions still need a cloud tick, a render tick and the hops
	// between them.
	time.Sleep(4 * frame)

	echoes := make([][]probe.Echo, n)
	seen := make([][]probe.Echo, n)
	for i, p := range s.players {
		echoes[i] = p.Echoes()
		if tr != nil {
			seen[i] = s.obs.Echoes(p.ID)
		}
	}
	for op, a := range acts {
		m.lateMs = append(m.lateMs, ms(a.begun.Sub(a.due)))
		back, ok := probe.First(echoes[a.player], a.stamp)
		if a.failed || !ok || back.Sub(a.due) > opTimeout {
			m.failed++
			continue
		}
		m.opMs = append(m.opMs, ms(back.Sub(a.due)))
		if tr == nil {
			continue
		}
		root := tr.add("op", -1, op, a.due, back)
		tr.add("bench.gen_late", root, op, a.due, a.begun)
		tr.add("probe.act_write", root, op, a.begun, a.sent)
		// The observer shares the cloud's tick with the supernodes, so its
		// copy of the stamp marks the end of the cloud's part.
		if out, ok := probe.First(seen[a.player], a.stamp); ok && !out.After(back) {
			tr.add("live.tick_wait", root, op, a.sent, out)
			tr.add("live.render_and_link", root, op, out, back)
			m.part("tick_wait", ms(out.Sub(a.sent)))
			m.part("downstream", ms(back.Sub(out)))
		}
	}
	return m, nil
}

func (s *steady) check() error {
	for _, p := range s.players {
		if n := p.SeqBreaks(); n != 0 {
			s.problems = append(s.problems, fmt.Sprintf("player %d saw %d segments out of sequence", p.ID, n))
		}
	}
	if len(s.problems) > 0 {
		return fmt.Errorf("%s", strings.Join(s.problems, "; "))
	}
	return nil
}

func (s *steady) close() {
	if s.obs != nil {
		s.obs.Close()
	}
	for _, p := range s.players {
		p.Close()
	}
	for _, sn := range s.sns {
		sn.Close()
	}
	if s.cloud != nil {
		s.cloud.Close()
	}
}
