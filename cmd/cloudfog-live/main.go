// Command cloudfog-live runs an actual CloudFog deployment on this machine:
// a cloud server owning the authoritative game world, fog supernodes keeping
// replicas via the update stream, and player clients issuing actions and
// receiving rendered video segments — all over real TCP connections with
// wide-area delays injected per link from the synthetic latency trace.
//
// It prints each player's measured end-to-end response latency (action →
// first segment reflecting it) against its game's requirement, plus the
// update-vs-video bandwidth ledger that motivates the whole design.
//
// With -metrics-addr the process serves a Prometheus-style text exposition
// of every link's frame/byte/delay instruments at /metrics for the lifetime
// of the run.
//
// The bare invocation (flat flags) runs the all-in-one local demo. The role
// subcommands run a single role from a serializable live.Config, so the same
// binary deploys each process of a real multi-machine topology:
//
//	cloudfog-live cloud       -config cloud.json
//	cloudfog-live coordinator -config coordinator.json -report ledger.json
//	cloudfog-live supernode   -config worker.json   (coord_addr ⇒ worker mode)
//	cloudfog-live player      -config player.json -duration 10s
//
// Usage:
//
//	cloudfog-live
//	cloudfog-live -players 8 -supernodes 2 -duration 5s
//	cloudfog-live -metrics-addr 127.0.0.1:9100
//	cloudfog-live <cloud|coordinator|supernode|player> -config <json>
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cloudfog/internal/fault"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
	"cloudfog/internal/world"
)

// defaultLiveChaos is the built-in -chaos profile, scaled to the session
// length: one supernode dies and recovers each quarter of the run, with a
// mid-run latency spike and loss burst on every stream.
func defaultLiveChaos(seed int64, duration time.Duration) *fault.Profile {
	q := duration / 4
	return &fault.Profile{
		Name:     "live-default",
		Seed:     seed,
		Duration: fault.Dur(duration),
		Specs: []fault.Spec{
			{Kind: fault.KindCrash, Period: fault.Dur(q), MTTR: fault.Dur(q),
				Detect: fault.Dur(100 * time.Millisecond)},
			{Kind: fault.KindLatency, MeanGood: fault.Dur(duration / 3),
				MeanBad: fault.Dur(duration / 6), Extra: fault.Dur(30 * time.Millisecond)},
			{Kind: fault.KindLoss, MeanGood: fault.Dur(duration / 3),
				MeanBad: fault.Dur(duration / 8), LossFrac: 0.1},
		},
	}
}

var (
	playersFlag    = flag.Int("players", 6, "number of live player clients")
	supernodesFlag = flag.Int("supernodes", 4, "number of live supernodes")
	durationFlag   = flag.Duration("duration", 4*time.Second, "session length")
	seedFlag       = flag.Int64("seed", 7, "latency landscape seed")
	fpsFlag        = flag.Int("fps", 30, "video frame rate")
	metricsFlag    = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address (e.g. 127.0.0.1:9100; empty = disabled)")
	chaosFlag      = flag.String("chaos", "", "chaos mode: fault profile JSON path, or \"default\" for a built-in profile scaled to -duration")
	transportFlag  = flag.String("transport", live.TransportTCP, "supernode→player stream transport: tcp (reliable, coalesced writes) or udp (datagrams, stale frames dropped)")
)

func main() {
	// Role subcommands first; anything else is the legacy flat-flag demo.
	if len(os.Args) > 1 {
		if role, err := live.ParseRole(os.Args[1]); err == nil {
			if err := runRole(signalContext(), role, os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "cloudfog-live %s: %v\n", role, err)
				os.Exit(1)
			}
			return
		}
	}
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cloudfog-live:", err)
		os.Exit(1)
	}
}

// startMetrics serves the registry's Prometheus exposition at /metrics on
// addr until the process exits. It returns the bound address.
func startMetrics(addr string, reg *obs.Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	go http.Serve(ln, mux)
	return ln.Addr().String(), nil
}

func run() error {
	switch {
	case *playersFlag < 1:
		return fmt.Errorf("-players %d: want at least 1", *playersFlag)
	case *supernodesFlag < 1:
		return fmt.Errorf("-supernodes %d: want at least 1", *supernodesFlag)
	case *fpsFlag < 1:
		return fmt.Errorf("-fps %d: want at least 1", *fpsFlag)
	case *durationFlag <= 0:
		return fmt.Errorf("-duration %v: want a positive session length", *durationFlag)
	}
	model := trace.DefaultModel(*seedFlag)
	placer := geo.DefaultUSPlacer()
	rng := sim.NewRand(*seedFlag + 1)

	// One registry always: the exit ledgers read it, -metrics-addr serves it.
	reg := obs.NewRegistry()
	if *metricsFlag != "" {
		addr, err := startMetrics(*metricsFlag, reg)
		if err != nil {
			return err
		}
		fmt.Printf("metrics on http://%s/metrics\n", addr)
	}

	// Endpoints: one datacenter, the supernodes, the players.
	dcEP := trace.Endpoint{ID: 2_000_000, Pos: geo.USRegion().Center(), Class: trace.ClassDatacenter}
	snEPs := make([]trace.Endpoint, *supernodesFlag)
	for i := range snEPs {
		snEPs[i] = trace.Endpoint{ID: trace.NodeID(1_000_000 + i), Pos: placer.Place(rng), Class: trace.ClassSupernode}
	}
	playerEPs := make([]trace.Endpoint, *playersFlag)
	for i := range playerEPs {
		playerEPs[i] = trace.Endpoint{ID: trace.NodeID(i + 1), Pos: placer.Place(rng), Class: trace.ClassNode}
	}

	tick := time.Second / time.Duration(*fpsFlag)
	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud,
		Addr: "127.0.0.1:0",
		Tick: tick,
		// The cloud always offers direct streaming so a player whose whole
		// backup ring is down degrades to the cloud instead of going dark.
		FPS: *fpsFlag,
	}, live.WithObs(reg), live.WithDelayFor(func(peerID int64) time.Duration {
		for _, eps := range [][]trace.Endpoint{snEPs, playerEPs} {
			for _, ep := range eps {
				if int64(ep.ID) == peerID {
					return model.OneWay(dcEP, ep)
				}
			}
		}
		return 0
	}))
	if err != nil {
		return err
	}
	defer cloud.Close()
	cloud.World(func(w *world.World) {
		for i := 0; i < 40; i++ {
			w.SpawnObject(world.Vec2{X: float64(i * 250 % 10000), Y: float64(i * 777 % 10000)})
		}
	})
	fmt.Printf("cloud on %s (tick %v)\n", cloud.Addr(), tick)

	// Supernodes live in a mutex-guarded map so chaos can kill and respawn
	// them mid-run; snAddrs pins each one's listen address so a respawn
	// comes back where the players' backup ring expects it.
	var snMu sync.Mutex
	snLive := make(map[int64]*live.Supernode, len(snEPs))
	snAddrs := make([]string, len(snEPs))
	startSupernode := func(ep trace.Endpoint, addr string) (*live.Supernode, error) {
		return live.NewSupernode(live.Config{
			Role:      live.RoleSupernode,
			ID:        int64(ep.ID),
			CloudAddr: cloud.Addr(),
			Addr:      addr,
			Transport: *transportFlag,
			FPS:       *fpsFlag,
		}, live.WithObs(reg), live.WithDelayFor(func(playerID int64) time.Duration {
			for _, pe := range playerEPs {
				if int64(pe.ID) == playerID {
					return model.OneWay(ep, pe)
				}
			}
			return 0
		}))
	}
	for i, ep := range snEPs {
		sn, err := startSupernode(ep, "127.0.0.1:0")
		if err != nil {
			return err
		}
		snLive[int64(ep.ID)] = sn
		snAddrs[i] = sn.Addr()
		fmt.Printf("supernode %d on %s (update hop %v)\n",
			ep.ID, sn.Addr(), model.OneWay(ep, dcEP).Round(time.Millisecond))
	}
	defer func() {
		snMu.Lock()
		defer snMu.Unlock()
		for _, sn := range snLive {
			sn.Close()
		}
	}()

	// Chaos: replay the fault profile in wall-clock time against the
	// running deployment.
	faultStats := obs.FaultStatsIn(reg)
	var stopChaos func() // set when chaos is armed
	if *chaosFlag != "" {
		profile := defaultLiveChaos(*seedFlag, *durationFlag)
		if *chaosFlag != "default" {
			p, err := fault.Load(*chaosFlag)
			if err != nil {
				return err
			}
			profile = p
		}
		targets := fault.Targets{Supernodes: make([]fault.Node, len(snEPs))}
		for i, ep := range snEPs {
			targets.Supernodes[i] = fault.Node{ID: int64(ep.ID), X: ep.Pos.X, Y: ep.Pos.Y}
		}
		sched, err := fault.Compile(profile, targets)
		if err != nil {
			return err
		}
		hooks := fault.WallHooks{
			Kill: func(id int64) {
				snMu.Lock()
				sn := snLive[id]
				delete(snLive, id)
				snMu.Unlock()
				if sn != nil {
					fmt.Printf("chaos: killing supernode %d\n", id)
					sn.Close()
				}
			},
			Recover: func(id int64) bool {
				var addr string
				var ep trace.Endpoint
				for i, e := range snEPs {
					if int64(e.ID) == id {
						addr, ep = snAddrs[i], e
						break
					}
				}
				sn, err := startSupernode(ep, addr)
				if err != nil {
					fmt.Printf("chaos: supernode %d failed to respawn on %s: %v\n", id, addr, err)
					return false
				}
				snMu.Lock()
				snLive[id] = sn
				snMu.Unlock()
				fmt.Printf("chaos: supernode %d respawned on %s\n", id, addr)
				return true
			},
			Link: func(extra time.Duration, lossFrac float64) {
				snMu.Lock()
				for _, sn := range snLive {
					sn.ImpairStreams(extra, lossFrac)
				}
				snMu.Unlock()
				fmt.Printf("chaos: link impairment extra=%v loss=%.0f%%\n", extra, lossFrac*100)
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		chaosDone := make(chan struct{})
		go func() {
			defer close(chaosDone)
			fault.RunWall(ctx, sched, hooks, faultStats)
		}()
		// RunWall folds its tallies into faultStats as it returns.
		stopChaos = func() { cancel(); <-chaosDone }
		fmt.Printf("chaos profile %q armed: %d scheduled events over %v\n",
			profile.Name, len(sched.Events), profile.Duration.Duration)
	}

	fmt.Printf("\nrunning %d players for %v (stream transport %s)...\n\n",
		*playersFlag, *durationFlag, *transportFlag)
	var wg sync.WaitGroup
	reports := make([]live.PlayerReport, *playersFlag)
	errs := make([]error, *playersFlag)
	gameIDs := make([]int, *playersFlag)
	for i := 0; i < *playersFlag; i++ {
		// Each player streams from the supernode with the lowest total
		// serving-path latency — the assignment protocol's choice — and
		// records the next-best supernodes as its failover backup ring.
		order := make([]int, len(snEPs))
		for s := range order {
			order[s] = s
		}
		sort.Slice(order, func(a, b int) bool {
			ta := model.OneWay(playerEPs[i], snEPs[order[a]]) + model.OneWay(snEPs[order[a]], dcEP)
			tb := model.OneWay(playerEPs[i], snEPs[order[b]]) + model.OneWay(snEPs[order[b]], dcEP)
			return ta < tb
		})
		var backups []string
		for _, s := range order[1:] {
			if len(backups) == 2 {
				break
			}
			backups = append(backups, snAddrs[s])
		}
		gameIDs[i] = i%3 + 3 // games 3-5: budgets that a wide-area path can meet
		wg.Add(1)
		go func(i, snIdx int) {
			defer wg.Done()
			up := model.OneWay(playerEPs[i], dcEP)
			p, err := live.NewPlayer(live.Config{
				Role:            live.RolePlayer,
				ID:              int64(playerEPs[i].ID),
				GameID:          gameIDs[i],
				CloudAddr:       cloud.Addr(),
				StreamAddr:      snAddrs[snIdx],
				BackupAddrs:     backups,
				Transport:       *transportFlag,
				ActionDelay:     up,
				ActionEvery:     200 * time.Millisecond,
				UploadAllowance: up,
				ViewRadius:      live.DefaultViewRadius,
			}, live.WithObs(reg))
			if err != nil {
				errs[i] = err
				return
			}
			reports[i], errs[i] = p.Run(*durationFlag)
		}(i, order[0])
	}
	wg.Wait()

	// Report every player — including the failed ones — and exit non-zero
	// if any session did not complete, rather than aborting on the first
	// error and hiding the rest.
	var failed []error
	var failovers, cloudFallbacks int64
	for i, r := range reports {
		if r.CloudFallback {
			cloudFallbacks++
		}
		if errs[i] != nil {
			failed = append(failed, fmt.Errorf("player %d: %w", i+1, errs[i]))
			fmt.Printf("player %d FAILED: %v\n", i+1, errs[i])
			continue
		}
		g, _ := game.ByID(gameIDs[i])
		failovers += r.Failovers
		fmt.Printf("player %d (%-10s req %3dms): %3d segments, %6.1f KB video, response mean %v p95 %v, %3.0f%% within budget, %d failovers\n",
			i+1, g.Name, g.ResponseRequirement().Milliseconds(),
			r.Segments, float64(r.Bytes)/1000,
			r.MeanResponse.Round(time.Millisecond), r.P95Response.Round(time.Millisecond),
			r.WithinBudget*100, r.Failovers)
	}

	updBytes, directBytes, snBytes := sentBytes(reg)
	fmt.Printf("\nbandwidth ledger: cloud shipped %.1f KB of updates and %.1f KB of direct video; supernodes shipped %.1f KB of video (%.1fx reduction)\n",
		float64(updBytes)/1000, float64(directBytes)/1000, float64(snBytes)/1000, float64(snBytes)/float64(updBytes+1))
	if *chaosFlag != "" {
		stopChaos()
		fmt.Printf("chaos ledger: %d kills, %d recoveries, %d link windows, %d player failovers (%d to the cloud)\n",
			faultStats.Kills.Load(), faultStats.Recoveries.Load(),
			faultStats.LinkWindows.Load(), failovers, cloudFallbacks)
	}

	if len(failed) > 0 {
		return fmt.Errorf("%d of %d players failed: %w", len(failed), *playersFlag, errors.Join(failed...))
	}
	return nil
}

// sentBytes sums the payload bytes each sender wrote: the cloud's update
// streams (cloud_to_sn<ID>) and direct video (cloud_to_p<ID>), and the
// supernodes' video (sn<ID>_to_p<ID>), killed instances included: a link's
// counter outlives it.
func sentBytes(reg *obs.Registry) (updates, direct, supernodes int64) {
	for name, n := range reg.Snapshot().Counters {
		link, ok := strings.CutPrefix(name, `cloudfog_link_sent_bytes_total{link="`)
		switch {
		case !ok:
		case strings.HasPrefix(link, "cloud_to_sn"):
			updates += n
		case strings.HasPrefix(link, "cloud_to_p"):
			direct += n
		case strings.HasPrefix(link, "sn"):
			supernodes += n
		}
	}
	return updates, direct, supernodes
}
