// Command cloudfog-coordinator runs the CloudFog control plane: workers
// (supernodes started with coord_addr) register with it and stream
// occupancy reports, players ask it for placement, and it hands out signed
// session tickets naming the serving worker and its backup ring. Worker
// deaths are detected by phi-accrual detectors over the report stream; the
// stranded sessions are re-placed and fresh tickets pushed to the players.
//
// Standalone mode serves until SIGINT/SIGTERM and then (with -report)
// writes the session-ledger reconciliation as JSON:
//
//	cloudfog-coordinator -config coordinator.json -report ledger.json
//
// Demo mode spins up a full local deployment in one process — cloud,
// coordinator, -workers workers, -players streaming players — kills one
// worker mid-stream, waits for every stranded session to re-place, and
// exits non-zero unless the ledger reconciles:
//
//	cloudfog-coordinator -demo -workers 3 -players 6 -duration 4s -report ledger.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/health"
	"cloudfog/internal/live"
)

var (
	configFlag   = flag.String("config", "", "coordinator config JSON path (role \"coordinator\")")
	addrFlag     = flag.String("addr", "127.0.0.1:0", "listen address when no -config is given")
	cloudFlag    = flag.String("cloud-addr", "", "cloud address for cloud-direct fallback tickets")
	keyFlag      = flag.String("ticket-key", "", "shared HMAC key for ticket signing (empty = unsigned)")
	reportFlag   = flag.String("report", "", "write the ledger reconciliation JSON here on exit (\"-\" = stdout)")
	demoFlag     = flag.Bool("demo", false, "run the local churn demo instead of serving")
	workersFlag  = flag.Int("workers", 3, "demo: worker count")
	playersFlag  = flag.Int("players", 6, "demo: player count")
	durationFlag = flag.Duration("duration", 4*time.Second, "demo: player session length")
	intervalFlag = flag.Duration("interval", 100*time.Millisecond, "failure-detector heartbeat interval")
	leaseFlag    = flag.Duration("lease", 0, "ticket lease TTL (0 disables leases)")
	drainFlag    = flag.Bool("drain", false, "demo: SIGTERM-drain a worker instead of killing it — fails on any stream interruption")
	drainTOFlag  = flag.Duration("drain-timeout", 0, "demo: worker drain deadline (0 = default)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfog-coordinator:", err)
		os.Exit(1)
	}
}

func coordinatorConfig() (live.Config, error) {
	if *configFlag != "" {
		return live.LoadConfig(*configFlag, live.RoleCoordinator)
	}
	cfg := live.Config{
		Role:      live.RoleCoordinator,
		Addr:      *addrFlag,
		CloudAddr: *cloudFlag,
		TicketKey: *keyFlag,
		Detector:  health.DetectorConfig{Mode: health.ModePhi, Interval: *intervalFlag},
		LeaseTTL:  *leaseFlag,
	}
	return cfg, cfg.Validate()
}

func writeReport(c *coord.Coordinator) error {
	if *reportFlag == "" {
		return nil
	}
	if *reportFlag == "-" {
		return c.WriteReport(os.Stdout)
	}
	f, err := os.Create(*reportFlag)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.WriteReport(f)
}

func run() error {
	if *demoFlag {
		return demo()
	}
	cfg, err := coordinatorConfig()
	if err != nil {
		return err
	}
	c, err := coord.StartCoordinator(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("coordinator on %s (detector bound %v)\n", c.Addr(), c.Bound())
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	return writeReport(c)
}

// demo is the `make coord` smoke: a full local deployment with one worker
// taken out mid-stream. The default mode kills the worker abruptly and
// fails unless every stranded session re-places and the ledger reconciles.
// With -drain the worker is SIGTERM-drained instead (`make coord-drain`):
// every session on it must hand off make-before-break — the demo fails on
// any visible stream interruption — and the drain must complete within the
// detector Bound().
func demo() error {
	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0",
		Tick: 20 * time.Millisecond, DirectFPS: 10,
	})
	if err != nil {
		return err
	}
	defer cloud.Close()

	cfg := live.Config{
		Role: live.RoleCoordinator, Addr: *addrFlag,
		CloudAddr: cloud.Addr(), TicketKey: *keyFlag,
		Detector: health.DetectorConfig{Mode: health.ModePhi, Interval: *intervalFlag},
		LeaseTTL: *leaseFlag,
	}
	if cfg.TicketKey == "" {
		cfg.TicketKey = "demo-key"
	}
	c, err := coord.StartCoordinator(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	fmt.Printf("coordinator on %s (detector bound %v, lease %v)\n", c.Addr(), c.Bound(), *leaseFlag)

	workers := make([]*coord.Worker, *workersFlag)
	for i := range workers {
		id := int64(i + 1)
		w, err := coord.StartWorker(live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: cfg.TicketKey,
			FPS:       30,
			X:         float64(1500 + (i%3)*3500),
			Y:         float64(2500 + (i/3)*5000),
			Capacity:  16, ReportEvery: 50 * time.Millisecond,
			DrainTimeout: *drainTOFlag,
		})
		if err != nil {
			return fmt.Errorf("worker %d: %w", id, err)
		}
		defer w.Close()
		workers[i] = w
		fmt.Printf("worker %d on %s\n", id, w.Addr())
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.WorkersAlive() < len(workers) {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d workers registered", c.WorkersAlive(), len(workers))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Open every session first so the drain mode can see who is placed on
	// the victim before the run starts.
	type run struct {
		id   int64
		sess *coord.Session
		rep  live.PlayerReport
		err  error
	}
	runs := make([]*run, *playersFlag)
	for i := range runs {
		r := &run{id: int64(600 + i)}
		r.sess, r.err = coord.OpenSession(context.Background(), live.Config{
			Role: live.RolePlayer, ID: r.id, GameID: 1,
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(),
			TicketKey: cfg.TicketKey,
			X:         float64(1000 + i*1500), Y: 3000,
		})
		if r.err != nil {
			return fmt.Errorf("player %d session: %w", r.id, r.err)
		}
		defer r.sess.Close()
		runs[i] = r
	}
	var wg sync.WaitGroup
	for _, r := range runs {
		wg.Add(1)
		go func(r *run) {
			defer wg.Done()
			r.rep, r.err = r.sess.Run(*durationFlag)
		}(r)
	}

	// Take one worker out a quarter into the run.
	time.Sleep(*durationFlag / 4)
	victim := workers[0]
	affected := 0
	for _, r := range runs {
		if r.sess.Ticket().Worker == victim.ID() {
			affected++
		}
	}
	if *drainFlag {
		fmt.Printf("draining worker %d mid-stream (%d sessions)\n", victim.ID(), affected)
		began := time.Now()
		drained := victim.Drain()
		took := time.Since(began)
		if !drained {
			return fmt.Errorf("worker %d did not empty before its drain deadline", victim.ID())
		}
		if took > c.Bound() {
			return fmt.Errorf("drain took %v, beyond detector bound %v", took, c.Bound())
		}
		fmt.Printf("worker %d drained in %v (bound %v)\n", victim.ID(), took, c.Bound())
	} else {
		fmt.Printf("killing worker %d mid-stream\n", victim.ID())
		victim.Close()
	}
	wg.Wait()

	var handoffs, failovers int64
	for _, r := range runs {
		if r.err != nil {
			return fmt.Errorf("player %d: %w", r.id, r.err)
		}
		fmt.Printf("player %d: worker %d, %d segments, %d failovers, %d handoffs\n",
			r.id, r.sess.Ticket().Worker, r.rep.Segments, r.rep.Failovers, r.rep.Handoffs)
		handoffs += r.rep.Handoffs
		failovers += r.rep.Failovers
		r.sess.Close()
	}

	// Sessions have departed; reconcile.
	deadline = time.Now().Add(5 * time.Second)
	for {
		l := c.Ledger()
		if l.ActiveOriginal+l.ActiveReplaced == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sessions never departed: %+v", l)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := writeReport(c); err != nil {
		return err
	}
	l := c.Ledger()
	fmt.Printf("ledger: %d placed, %d re-placed, %d renewed, %d departed, %d expired, %d rejected, workers lost %d, drains %d/%d sessions\n",
		l.Placements, l.Replacements, l.Renewals, l.Departed, l.Expired, l.Rejected, l.WorkersLost, l.DrainWorkers, l.DrainSessions)
	if !l.Balanced() {
		return fmt.Errorf("ledger does not reconcile: %+v", l)
	}
	if *drainFlag {
		if failovers != 0 {
			return fmt.Errorf("%d visible stream interruptions during a drain — handoffs must be make-before-break", failovers)
		}
		if affected > 0 && int(handoffs) < affected {
			return fmt.Errorf("only %d handoffs for %d drained sessions", handoffs, affected)
		}
		if l.DrainSessions == 0 {
			return fmt.Errorf("ledger recorded no drained sessions")
		}
	} else if l.Replacements == 0 {
		return fmt.Errorf("no sessions were re-placed after the worker kill")
	}
	return nil
}
