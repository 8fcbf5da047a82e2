package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/bench/probe"
	"cloudfog/internal/coord"
	"cloudfog/internal/game"
	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

const (
	churnWorkers = 4
	// Six generators, each due every 47 ms and offset a sixth of that from
	// the next: 128 sessions a second, so a 20 s run clears tailMinSamples.
	// A session holds its generator for ~18 ms, so generators are idle most
	// of the time and a slow session delays only its own generator's next.
	churnGenerators = 6
	churnEvery      = 47 * time.Millisecond
	churnCapacity   = 64
	churnReport     = 50 * time.Millisecond
	churnLease      = 5 * time.Second
	churnKey        = "bench-ticket-key"
	// churnFirstPlayer keeps session player IDs clear of the worker IDs.
	churnFirstPlayer = 1000
)

// churn is the live-churn deployment: a cloud, a coordinator issuing signed
// leases and phase-stratified workers registered with it.
type churn struct {
	seed    int64
	bounds  world.Rect
	level   uint8
	cloud   *live.Cloud
	coord   *coord.Coordinator
	workers []*coord.Worker

	nextPlayer int64
	sessions   uint64 // placements asked for, warm-ups included
	problems   []string
}

// workerSite puts worker i of the fleet in the middle of its own quadrant.
func workerSite(i int, b world.Rect) (x, y float64) {
	return b.Min.X + b.Width()*(0.25+0.5*float64(i%2)), b.Min.Y + b.Height()*(0.25+0.5*float64(i/2))
}

func setupChurn(e env) (deployment, error) {
	c := &churn{seed: e.seed, bounds: world.DefaultConfig().Bounds, nextPlayer: churnFirstPlayer}
	if err := c.start(e); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *churn) start(e env) error {
	g, err := game.ByID(liveGameID)
	if err != nil {
		return err
	}
	c.level = uint8(g.StartLevel)
	c.cloud, err = live.NewCloud(live.Config{Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: frame})
	if err != nil {
		return err
	}
	cloudStart := time.Now()
	// A timeout detector with a long interval: a scheduler stall on a
	// shared box must not bury a worker and turn into failed sessions.
	c.coord, err = coord.StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0",
		TicketKey: churnKey, LeaseTTL: churnLease,
		Detector: health.DetectorConfig{Mode: health.ModeTimeout, Interval: time.Second},
	})
	if err != nil {
		return err
	}
	err = startStratified(cloudStart, churnWorkers, e, func(i int) error {
		x, y := workerSite(i, c.bounds)
		w, err := coord.StartWorker(live.Config{
			Role: live.RoleSupernode, ID: int64(i + 1), Addr: "127.0.0.1:0",
			CloudAddr: c.cloud.Addr(), CoordAddr: c.coord.Addr(), TicketKey: churnKey,
			FPS: liveFPS, X: x, Y: y, Capacity: churnCapacity, ReportEvery: churnReport,
		})
		if err == nil {
			c.workers = append(c.workers, w)
		}
		return err
	})
	if err != nil {
		return err
	}
	// The join gate checks signature and expiry only once the worker has
	// learned the lease TTL from the coordinator's first sync.
	err = waitFor(5*time.Second, "every worker registered and synced", func() bool {
		if c.coord.WorkersAlive() < churnWorkers {
			return false
		}
		for _, w := range c.workers {
			if w.LeaseTTL() <= 0 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	// Warm-up: one untimed session per generator.
	rng := rand.New(rand.NewSource(e.seed))
	for i := 0; i < churnGenerators; i++ {
		if _, err := c.session(c.player(), randomPoint(rng, c.bounds)); err != nil {
			return fmt.Errorf("warm-up session: %w", err)
		}
	}
	return nil
}

func (c *churn) player() int64 {
	c.nextPlayer++
	c.sessions++
	return c.nextPlayer
}

// sessionTimes are the probe-visible boundaries of one session.
type sessionTimes struct {
	begun  time.Time // OpenSession called
	placed time.Time // OpenSession returned a verified ticket
	probe.JoinTimes
}

// session is one operation: place, join the ticket's worker, wait for the
// first segment, depart.
func (c *churn) session(player int64, at world.Vec2) (sessionTimes, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	st := sessionTimes{begun: time.Now()}
	sess, err := coord.OpenSession(ctx, live.Config{
		Role: live.RolePlayer, ID: player, GameID: liveGameID,
		CloudAddr: c.cloud.Addr(), CoordAddr: c.coord.Addr(), TicketKey: churnKey,
		X: at.X, Y: at.Y,
	})
	if err != nil {
		return st, err
	}
	defer sess.Close()
	st.placed = time.Now()
	t := sess.Ticket()
	switch {
	case !coord.VerifyTicket([]byte(churnKey), t):
		return st, fmt.Errorf("ticket for player %d does not verify under the key", player)
	case t.Player != player || t.Worker == 0 || t.Expiry <= t.Issued:
		return st, fmt.Errorf("ticket for player %d names player %d, worker %d, lease %d..%d",
			player, t.Player, t.Worker, t.Issued, t.Expiry)
	}
	st.JoinTimes, err = probe.JoinOnce(ctx, t.Addr, proto.JoinStream{
		Player: player, GameID: liveGameID,
		ViewX: at.X, ViewY: at.Y, ViewR: liveViewRadius, LevelCap: c.level,
		Ticket: proto.MarshalTicket(t),
	})
	return st, err
}

type churnOp struct {
	due time.Time
	st  sessionTimes
	err error
}

func (c *churn) measure(length time.Duration, tr *tracer) (*measurement, error) {
	start := time.Now().Add(10 * time.Millisecond)
	ops := make([][]churnOp, churnGenerators)
	base := c.nextPlayer
	perGen := int64(length/churnEvery) + 1
	var completed atomic.Int64
	gauge := startGauge(gaugeEvery, func() float64 { return float64(completed.Load()) })
	var wg sync.WaitGroup
	for g := 0; g < churnGenerators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(c.seed*1_000_003 + base + int64(g)))
			loop := newOpenLoop(start.Add(time.Duration(g)*churnEvery/churnGenerators), churnEvery, length)
			for {
				i, due, _, ok := loop.wait()
				if !ok {
					return
				}
				op := churnOp{due: due}
				op.st, op.err = c.session(base+1+int64(g)*perGen+int64(i), randomPoint(rng, c.bounds))
				ops[g] = append(ops[g], op)
				if op.err == nil {
					completed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	m := &measurement{wall: time.Since(start)}
	m.cpuUsPerWork = gauge.finish()
	c.nextPlayer = base + churnGenerators*perGen

	n := 0
	for _, gen := range ops {
		for _, op := range gen {
			n++
			c.sessions++
			m.attempted++
			m.lateMs = append(m.lateMs, ms(op.st.begun.Sub(op.due)))
			if op.err != nil || op.st.First.Sub(op.due) > opTimeout {
				m.failed++
				if op.err != nil && len(c.problems) < 5 {
					c.problems = append(c.problems, op.err.Error())
				}
				continue
			}
			m.work++
			m.opMs = append(m.opMs, ms(op.st.First.Sub(op.due)))
			if tr == nil {
				continue
			}
			st := op.st
			root := tr.add("op", -1, n, op.due, st.First)
			tr.add("bench.gen_late", root, n, op.due, st.begun)
			tr.add("coord.OpenSession", root, n, st.begun, st.placed)
			tr.add("probe.dial", root, n, st.placed, st.Dialed)
			tr.add("probe.join_write", root, n, st.Dialed, st.Joined)
			tr.add("live.join_ack", root, n, st.Joined, st.Acked)
			tr.add("live.first_frame_wait", root, n, st.Acked, st.First)
			m.part("place_rtt", ms(st.placed.Sub(st.begun)))
			m.part("join_ack", ms(st.Acked.Sub(st.Joined)))
			m.part("first_frame_wait", ms(st.First.Sub(st.Acked)))
		}
	}
	return m, nil
}

// check reconciles the coordinator's ledger with the sessions the harness
// ran: every one placed, none rejected or replaced, all departed.
func (c *churn) check() error {
	var l coord.Ledger
	err := waitFor(2*time.Second, "every session's departure to reach the ledger", func() bool {
		l = c.coord.Ledger()
		return l.Departed == l.Placements
	})
	if err != nil {
		c.problems = append(c.problems, err.Error())
	}
	if !l.Balanced() {
		c.problems = append(c.problems, fmt.Sprintf("ledger does not balance: %+v", l))
	}
	if l.Placements != c.sessions || l.Rejected != 0 || l.Replacements != 0 || l.WorkersLost != 0 {
		c.problems = append(c.problems, fmt.Sprintf(
			"ledger has %d placements, %d rejected, %d replacements, %d workers lost for %d sessions",
			l.Placements, l.Rejected, l.Replacements, l.WorkersLost, c.sessions))
	}
	if len(c.problems) > 0 {
		return fmt.Errorf("%s", strings.Join(c.problems, "; "))
	}
	return nil
}

func (c *churn) close() {
	for _, w := range c.workers {
		w.Close()
	}
	if c.coord != nil {
		c.coord.Close()
	}
	if c.cloud != nil {
		c.cloud.Close()
	}
}
