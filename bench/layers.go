package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cloudfog/internal/coord"
	"cloudfog/internal/core"
	"cloudfog/internal/experiment"
	"cloudfog/internal/fault"
	"cloudfog/internal/game"
	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/qoe"
	"cloudfog/internal/sched"
	"cloudfog/internal/shard"
	"cloudfog/internal/sim"
	"cloudfog/internal/spatial"
	"cloudfog/internal/stream"
	"cloudfog/internal/trace"
	"cloudfog/internal/world"
)

// perLayerUnits fixes the per-layer metrics and their units. Each is timed
// from outside: a call into a layer's exported functions, or a boundary a
// probe connection can see. README.md says which end-to-end metric each
// should move, on which workload.
var perLayerUnits = map[string]string{
	"live.tick_wait_ms":          "ms",
	"live.render_wait_ms":        "ms",
	"live.link_oneway_ms":        "ms",
	"live.link_urgent_oneway_ms": "ms",
	"live.dgram_oneway_ms":       "ms",
	"live.link_frames_per_s":     "1/s",
	"live.join_ack_ms":           "ms",
	"live.first_frame_wait_ms":   "ms",
	"world.tick_us":              "us",
	"world.visible_us":           "us",
	"proto.delta_codec_us":       "us",
	"proto.segment_codec_ns":     "ns",
	"proto.action_codec_ns":      "ns",
	"coord.place_rtt_ms":         "ms",
	"coord.place_us":             "us",
	"coord.ticket_sign_us":       "us",
	"coord.ticket_verify_us":     "us",
	"coord.place_wire_per_s":     "1/s",
	"health.detector_beat_ns":    "ns",
	"health.overload_admit_ns":   "ns",
	"sim.events_per_s":           "1/s",
	"qoe.node_ms":                "ms",
	"qoe.segments_per_s":         "1/s",
	"sched.buffer_op_ns":         "ns",
	"obs.node_overhead_frac":     "frac",
	"experiment.sweep_speedup":   "x",
	"experiment.world_build_s":   "s",
	"core.join_us":               "us",
	"spatial.nearest_us":         "us",
	"trace.oneway_ns":            "ns",
	"core.failover_cycle_us":     "us",
	"core.relieve_ms":            "ms",
	"fault.compile_ms":           "ms",
	"shard.run_s":                "s",
	"shard.speedup_2":            "x",
	"bench.gen_late_p95_ms":      "ms",
	"trace.coverage_frac":        "frac",
	"trace.overhead_frac":        "frac",
}

// microBudget is how long a micro-probe loops; it reports the median batch,
// so a stall costs one batch and not the figure.
const microBudget = 80 * time.Millisecond

// sink keeps results alive so the compiler cannot drop a measured call.
var sink int

// perCall runs fn in batches until microBudget has passed and returns the
// median batch's nanoseconds per call.
func perCall(batch int, fn func()) float64 {
	var per []float64
	deadline := time.Now().Add(microBudget)
	for len(per) < 5 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// timed returns how many nanoseconds one call of fn took.
func timed(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0)), err
}

// medianOf times fn n times and returns the median in nanoseconds.
func medianOf(n int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t, err := timed(fn)
		if err != nil {
			return 0, err
		}
		ts = append(ts, t)
	}
	return median(ts), nil
}

// layers collects the per-layer metrics of one traced run.
type layers struct {
	e   env
	out map[string]metric
}

func (l *layers) set(name string, v float64) {
	l.out[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

// setNs records a time measured in nanoseconds in the metric's own unit.
func (l *layers) setNs(name string, ns float64) {
	per := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
	l.set(name, ns/per[perLayerUnits[name]])
}

// probes runs every probe that needs no live deployment, with inputs made
// from the run's seed.
func (l *layers) probes() error {
	for _, probe := range []func() error{
		l.links, l.worldAndProto, l.control, l.placeWire, l.healthAndSim, l.figuresLayers, l.scaleLayers,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

func tcpPair() (a, b net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		return nil, nil, acc.err
	}
	return a, acc.conn, nil
}

func udpPair() (a, b net.Conn, err error) {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, nil, err
	}
	cli, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return cli, srv, nil
}

// oneWay times frames of one type and size across an idle transport pair,
// from the call that enqueues the frame to Recv returning it.
func oneWay(send, recv live.Transport, typ proto.MsgType, payload []byte) (float64, error) {
	const frames = 120
	arrivals := make(chan time.Time)
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, err := recv.Recv(); err != nil {
				return
			}
			select {
			case arrivals <- time.Now():
			case <-quit:
				return
			}
		}
	}()
	defer func() {
		close(quit)
		send.Close()
		recv.Close() // fails the receiver's Recv
		<-done
	}()
	_, dgram := send.(*live.DatagramLink)
	var samples []float64
	for i := 0; i < frames; i++ {
		t0 := time.Now()
		if !send.SendFrame(append(send.AcquireFrame(typ), payload...)) {
			return 0, fmt.Errorf("frame %d of type %d was not accepted", i, typ)
		}
		select {
		case at := <-arrivals:
			samples = append(samples, float64(at.Sub(t0)))
		case <-done:
			return 0, fmt.Errorf("receiver failed after %d frames", i)
		case <-time.After(200 * time.Millisecond):
			// A datagram may be lost; a stream frame may not.
			if !dgram {
				return 0, fmt.Errorf("frame %d of type %d did not arrive", i, typ)
			}
		}
		time.Sleep(300 * time.Microsecond) // let the writer go idle again
	}
	if len(samples) < frames/2 {
		return 0, fmt.Errorf("only %d of %d frames arrived", len(samples), frames)
	}
	return median(samples), nil
}

// segmentPayload is a segment message of the live workloads' size.
func segmentPayload() []byte {
	g, _ := game.ByID(liveGameID)
	n := int(g.Quality().Bitrate) / liveFPS / 8
	p := proto.AppendSegmentHeader(nil, proto.Segment{Player: 1, Seq: 1, Level: uint8(g.StartLevel)}, n)
	return append(p, make([]byte, n)...)
}

func (l *layers) links() error {
	for _, probe := range []struct {
		name    string
		dgram   bool
		typ     proto.MsgType
		payload []byte
	}{
		{"live.link_oneway_ms", false, proto.TSegment, segmentPayload()},
		{"live.link_urgent_oneway_ms", false, proto.TAck, proto.MarshalAck(proto.Ack{})},
		{"live.dgram_oneway_ms", true, proto.TSegment, segmentPayload()},
	} {
		var (
			send, recv live.Transport
			a, b       net.Conn
			err        error
		)
		if probe.dgram {
			if a, b, err = udpPair(); err == nil {
				send, recv = live.NewDatagramLink(a, live.LinkOptions{}), live.NewDatagramLink(b, live.LinkOptions{})
			}
		} else if a, b, err = tcpPair(); err == nil {
			send, recv = live.NewLink(a, 0), live.NewLink(b, 0)
		}
		if err != nil {
			return err
		}
		d, err := oneWay(send, recv, probe.typ, probe.payload)
		if err != nil {
			return fmt.Errorf("%s: %w", probe.name, err)
		}
		l.setNs(probe.name, d)
	}

	// Saturation: one sender pushing 64-byte frames through the coalescing
	// writer as fast as backpressure allows, until the receiver has read
	// the last of them.
	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	send, recv := live.NewLink(a, 0), live.NewLink(b, 0)
	defer recv.Close()
	var got atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, _, err := recv.Recv(); err != nil {
				return
			}
			got.Add(1)
		}
	}()
	payload := make([]byte, 64)
	t0 := time.Now()
	alive := true
	for alive && time.Since(t0) < 2*microBudget {
		alive = send.SendFrameWait(append(send.AcquireFrame(proto.TSegment), payload...))
	}
	send.Close() // flushes what is queued, then closes the connection
	<-done
	if !alive {
		return fmt.Errorf("live.link_frames_per_s: link died")
	}
	l.set("live.link_frames_per_s", float64(got.Load())/time.Since(t0).Seconds())
	return nil
}

func (l *layers) worldAndProto() error {
	rng := l.e.rand(2)
	cfg := world.DefaultConfig()
	w := world.New(cfg)
	for i := 0; i < steadyObjects; i++ {
		w.SpawnObject(randomPoint(rng, cfg.Bounds))
	}
	for p := int64(1); p <= steadyPlayers; p++ {
		if _, err := w.SpawnAvatar(p, randomPoint(rng, cfg.Bounds)); err != nil {
			return err
		}
	}
	replica := world.NewReplica()
	if err := replica.Apply(w.Snapshot()); err != nil {
		return err
	}

	// One cloud tick at the live-steady entity count, with the one or two
	// actions a tick sees there.
	actions := make([]world.Action, 2)
	version := w.Version()
	var delta world.Delta
	tick := func() {
		for i := range actions {
			actions[i] = world.Action{Player: 1 + rng.Int63n(steadyPlayers), Kind: world.ActionMove, Target: randomPoint(rng, cfg.Bounds)}
		}
		w.Apply(actions)
		w.Step(frame.Seconds())
		delta = w.DeltaSince(version)
		version = delta.ToVersion
		w.Compact(version)
	}
	l.setNs("world.tick_us", perCall(200, tick))

	view := world.Viewport{Center: randomPoint(rng, cfg.Bounds), Radius: liveViewRadius}
	l.setNs("world.visible_us", perCall(500, func() { sink += len(replica.Visible(view)) }))

	tick()
	var buf []byte
	var codecErr error
	l.setNs("proto.delta_codec_us", perCall(500, func() {
		buf = proto.AppendDelta(buf[:0], delta)
		if _, err := proto.UnmarshalDelta(buf); err != nil {
			codecErr = err
		}
	}))

	g, _ := game.ByID(liveGameID)
	n := int(g.Quality().Bitrate) / liveFPS / 8
	frameBuf := make([]byte, 0, n+64)
	var seg proto.Segment
	l.setNs("proto.segment_codec_ns", perCall(5000, func() {
		f := proto.BeginFrame(frameBuf[:0], proto.TSegment)
		f = proto.AppendSegmentHeader(f, proto.Segment{Player: 1, Seq: int64(sink), Level: 4, ActionIssued: 7}, n)
		f = f[:len(f)+n] // the render loop writes the payload in place
		if err := proto.FinishFrame(f, 0); err != nil {
			codecErr = err
		}
		if err := proto.UnmarshalSegmentInto(f[proto.FrameHeaderLen:], &seg); err != nil {
			codecErr = err
		}
		sink += len(seg.Payload)
	}))

	act := proto.Action{Player: 1, Issued: 7, Act: world.Action{Player: 1, Kind: world.ActionMove, Target: view.Center}}
	l.setNs("proto.action_codec_ns", perCall(5000, func() {
		buf = proto.AppendAction(buf[:0], act)
		a, err := proto.UnmarshalAction(buf)
		if err != nil {
			codecErr = err
		}
		sink += int(a.Player)
	}))
	return codecErr
}

// fleetRegister is the registration of worker i of the live-churn fleet,
// for probes that need the fleet without its supernodes.
func fleetRegister(i int, capacity int32) proto.Register {
	x, y := workerSite(i, world.DefaultConfig().Bounds)
	return proto.Register{Worker: int64(i + 1), Capacity: capacity, X: x, Y: y, Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
}

func (l *layers) control() error {
	rng := l.e.rand(3)
	bounds := world.DefaultConfig().Bounds
	p, err := coord.NewPlacer(coord.PlacerConfig{
		Detector:  health.DetectorConfig{Mode: health.ModeTimeout, Interval: time.Second},
		TicketKey: []byte(churnKey), LeaseTTL: churnLease,
	})
	if err != nil {
		return err
	}
	for i := 0; i < churnWorkers; i++ {
		p.Register(0, fleetRegister(i, churnCapacity))
	}
	var (
		now    time.Duration
		player int64 = churnFirstPlayer
		ticket proto.Ticket
		failed bool
	)
	l.setNs("coord.place_us", perCall(200, func() {
		now += time.Microsecond
		player++
		at := randomPoint(rng, bounds)
		t, ok := p.Place(now, proto.Place{Player: player, GameID: liveGameID, X: at.X, Y: at.Y})
		if !ok || t.Worker == 0 {
			failed = true
		}
		ticket = t
		p.Depart(player)
	}))
	if failed {
		return fmt.Errorf("coord.place_us: a placement found no worker")
	}
	key := []byte(churnKey)
	l.setNs("coord.ticket_sign_us", perCall(500, func() { coord.SignTicket(key, &ticket) }))
	l.setNs("coord.ticket_verify_us", perCall(500, func() {
		if !coord.VerifyTicket(key, ticket) {
			failed = true
		}
	}))
	if failed {
		return fmt.Errorf("coord.ticket_verify_us: a signed ticket did not verify")
	}
	return nil
}

// placeWire measures the coordinator's capacity over the wire: two
// connections asking for placements back to back. Closed loop on two shared
// cores, so it measures the scheduler as much as the coordinator; it is
// reported and never gated.
func (l *layers) placeWire() error {
	c, err := coord.StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0", TicketKey: churnKey, LeaseTTL: churnLease,
		Detector: health.DetectorConfig{Mode: health.ModeTimeout, Interval: time.Second},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	bounds := world.DefaultConfig().Bounds
	for i := 0; i < churnWorkers; i++ {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			return err
		}
		defer conn.Close()
		// No reports follow, so no placement is ever taken off a worker's
		// load: capacity the probe cannot fill.
		if err := proto.WriteFrame(conn, proto.TRegister, proto.MarshalRegister(fleetRegister(i, 1<<30))); err != nil {
			return err
		}
	}
	if err := waitFor(2*time.Second, "the probe's workers to register", func() bool { return c.WorkersAlive() == churnWorkers }); err != nil {
		return err
	}
	const clients = 2
	errs := make(chan error, clients)
	var placed atomic.Int64
	t0 := time.Now()
	for k := 0; k < clients; k++ {
		go func(k int) {
			conn, err := net.Dial("tcp", c.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rng := l.e.rand(int64(10 + k))
			var out, in []byte
			for player := int64(1 + k); time.Since(t0) < 3*microBudget; player += clients {
				at := randomPoint(rng, bounds)
				out = proto.AppendFrame(out[:0], proto.TPlace,
					proto.AppendPlace(nil, proto.Place{Player: churnFirstPlayer + player, GameID: liveGameID, X: at.X, Y: at.Y}))
				if _, err := conn.Write(out); err != nil {
					errs <- err
					return
				}
				typ, _, err := proto.ReadFrameReuse(conn, &in)
				if err != nil || typ != proto.TTicket {
					errs <- fmt.Errorf("placement reply type %d: %v", typ, err)
					return
				}
				placed.Add(1)
			}
			errs <- nil
		}(k)
	}
	for k := 0; k < clients; k++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("coord.place_wire_per_s: %w", err)
		}
	}
	l.set("coord.place_wire_per_s", float64(placed.Load())/time.Since(t0).Seconds())
	return nil
}

func (l *layers) healthAndSim() error {
	det := health.NewDetector(health.DetectorConfig{Mode: health.ModePhi})
	var now time.Duration
	suspected := false
	l.setNs("health.detector_beat_ns", perCall(5000, func() {
		now += time.Second
		det.Heartbeat(now)
		if det.Suspect(now + 500*time.Millisecond) {
			suspected = true
		}
	}))
	if suspected {
		return fmt.Errorf("health.detector_beat_ns: steady heartbeats were suspected")
	}

	ladder, err := health.NewOverload(health.OverloadConfig{}, nil, nil)
	if err != nil {
		return err
	}
	const nodes = 256
	for id := int64(0); id < nodes; id++ {
		ladder.Observe(id, int(id%16), 16)
	}
	var id int64
	l.setNs("health.overload_admit_ns", perCall(20000, func() {
		id = (id + 1) % nodes
		if ladder.Admit(id) {
			sink++
		}
	}))

	// A chain of events, each scheduling the next: Schedule plus Step.
	const events = 200_000
	engine := sim.New()
	fired := 0
	var next func()
	next = func() {
		if fired++; fired < events {
			engine.Schedule(time.Millisecond, next)
		}
	}
	rate, err := medianOf(5, func() error {
		fired = 0
		engine.Reset()
		engine.Schedule(time.Millisecond, next)
		for engine.Step() {
		}
		return nil
	})
	l.set("sim.events_per_s", events/(rate/1e9))
	return err
}

// figuresLayers times the layers the sim-figures workload spends its time
// in, on its world.
func (l *layers) figuresLayers() error {
	w, err := figuresWorld(l.e.seed)
	if err != nil {
		return err
	}
	const (
		players  = 10
		duration = 10 * time.Second
	)
	uplink, specs := w.SupernodeScenario(players)
	opts := qoe.DefaultOptions()
	opts.Seed = l.e.seed
	plain := func() error {
		_, err := qoe.RunNode(opts, uplink, specs, duration)
		return err
	}
	reg := obs.NewRegistry()
	events := obs.NewEventLog(1024)
	observed := func() error {
		o := opts
		o.Obs = obs.NodeStatsIn(reg)
		o.Obs.Engine = obs.EngineStatsIn(reg)
		o.Obs.Sink = events.Sink()
		_, err := qoe.RunNode(o, uplink, specs, duration)
		return err
	}
	// A millisecond run is at the mercy of whatever else the box is doing:
	// the two variants alternate, and each is taken by its fastest run.
	var node, withObs []float64
	for i := 0; i < 15; i++ {
		a, err := timed(plain)
		if err != nil {
			return err
		}
		b, err := timed(observed)
		if err != nil {
			return err
		}
		node, withObs = append(node, a), append(withObs, b)
	}
	l.setNs("qoe.node_ms", fastest(node))
	l.set("qoe.segments_per_s", players*game.FrameRate*duration.Seconds()/(fastest(node)/1e9))
	l.set("obs.node_overhead_frac", fastest(withObs)/fastest(node)-1)

	// The sender buffer at the strategy figures' middle load: a frame's
	// worth of segments in, then out, per simulated frame.
	const load = 15
	scfg := stream.DefaultConfig()
	buf := sched.NewBuffer(sched.DefaultConfig(), scfg, uplink)
	encs := make([]*stream.Encoder, load)
	games := make([]game.Game, load)
	segs := make([]stream.Segment, load)
	for i := range encs {
		games[i], _ = game.ByID(1 + i%5)
		encs[i] = stream.NewEncoder(scfg, int64(i), games[i].Quality())
	}
	var now time.Duration
	perFrame := perCall(200, func() {
		now += scfg.SegmentDuration
		for i, enc := range encs {
			enc.EncodeInto(&segs[i], now, now, games[i])
			buf.Enqueue(now, &segs[i])
		}
		for buf.DequeueAny(now) != nil {
		}
		buf.ClearEvicted()
	})
	l.setNs("sched.buffer_op_ns", perFrame/load)

	// Figure 9(a) on one sweep worker against one per CPU.
	serial, err := timed(func() error {
		_, err := experiment.ContinuityVsPlayers(w, continuityCounts, continuityHorizon/2)
		return err
	})
	if err != nil {
		return err
	}
	w.Cfg.SweepWorkers = 0
	pooled, err := timed(func() error {
		_, err := experiment.ContinuityVsPlayers(w, continuityCounts, continuityHorizon/2)
		return err
	})
	l.set("experiment.sweep_speedup", serial/pooled)
	return err
}

// scaleFog builds the fog experiment.ScaleRun builds: the overload ladder
// installed, its clock the shard runner's barrier clock.
func scaleFog(w *experiment.World, clk *shard.Clock) (*core.Fog, error) {
	cc := w.Cfg.Core
	cc.Now = clk.Now
	ladder, err := health.NewOverload(health.OverloadConfig{}, nil, clk.Now)
	if err != nil {
		return nil, err
	}
	cc.Overload = ladder
	return core.BuildFog(cc, w.Datacenters(w.Cfg.Datacenters), w.SupernodeSet(w.Cfg.Supernodes), sim.NewRand(w.Cfg.Seed+200))
}

// scaleLayers takes experiment.ScaleRun apart on the sim-scale world: world
// build, the serial join path, the barrier's relief sweep, fault
// compilation, the shard runner alone at one and two shards, and a
// crash/failover/re-register cycle of the placement index.
func (l *layers) scaleLayers() error {
	t0 := time.Now()
	w, err := scaleWorld(l.e.seed)
	if err != nil {
		return err
	}
	l.setNs("experiment.world_build_s", float64(time.Since(t0)))

	opts := scaleOptions()
	var compiled *fault.Schedule
	compile, err := medianOf(5, func() error {
		var err error
		compiled, err = fault.Compile(experiment.ScaleProfile(w, opts), w.FaultTargets())
		return err
	})
	if err != nil {
		return err
	}
	l.setNs("fault.compile_ms", compile)

	// Every step below starts from a freshly built and fully joined fog, as
	// a repetition of the workload does: relief and failover change what a
	// later step would find.
	joined := func() (*core.Fog, []*core.Player, *shard.Clock, float64, error) {
		clk := &shard.Clock{}
		fog, err := scaleFog(w, clk)
		if err != nil {
			return nil, nil, nil, 0, err
		}
		t0 := time.Now()
		players := w.JoinAll(fog, w.Cfg.Players)
		return fog, players, clk, float64(time.Since(t0)), nil
	}
	qopts := qoe.DefaultOptions()
	qopts.Seed = w.Cfg.Seed + 701
	qopts.Warmup = scaleEpoch / 5
	var runs [2]float64
	for i, shards := range []int{1, scaleShards} {
		fog, players, clk, _, err := joined()
		if err != nil {
			return err
		}
		runner := shard.NewRunner(shard.Config{
			Shards: shards, Seed: w.Cfg.Seed, Horizon: scaleHorizon, Epoch: scaleEpoch,
			Width: w.Cfg.Core.Region.Width, Height: w.Cfg.Core.Region.Height,
			Detector: health.ModePhi, Overload: true, QoE: qopts, QoENodeBudget: 32,
		}, fog, players, compiled, w.Respawner(), clk)
		t0 = time.Now()
		if _, err := runner.Run(); err != nil {
			return err
		}
		runs[i] = float64(time.Since(t0))
		w.LeaveAll(fog, players)
	}
	l.setNs("shard.run_s", runs[0])
	l.set("shard.speedup_2", runs[0]/runs[1])

	fog, players, _, join, err := joined()
	if err != nil {
		return err
	}
	l.setNs("core.join_us", join/float64(len(players)))
	relieve, _ := medianOf(5, func() error { sink += fog.RelieveOverloaded(); return nil })
	l.setNs("core.relieve_ms", relieve)

	// The placement index, read and written, at the workload's fleet size.
	grid := spatial.NewGrid(w.Cfg.Core.Region.Width, w.Cfg.Core.Region.Height)
	sns := append([]*core.Supernode(nil), fog.Supernodes()...)
	for _, sn := range sns {
		grid.Insert(sn.ID, sn.Pos.X, sn.Pos.Y)
	}
	var (
		near []spatial.Neighbor
		k    int
	)
	l.setNs("spatial.nearest_us", perCall(500, func() {
		p := players[k%len(players)]
		k++
		near = grid.NearestInto(near, p.Pos.X, p.Pos.Y, w.Cfg.Core.Candidates, nil)
		sink += len(near)
	}))
	model := trace.DefaultModel(l.e.seed)
	l.setNs("trace.oneway_ns", perCall(5000, func() {
		p := players[k%len(players)]
		k++
		sink += int(model.OneWay(p.Endpoint(), sns[k%len(sns)].Endpoint()))
	}))

	respawn := w.Respawner()
	var cycles []float64
	for _, sn := range sns[:64] {
		t0 = time.Now()
		for _, orphan := range fog.FailSupernode(sn.ID) {
			fog.Failover(orphan)
		}
		if err := fog.RegisterSupernode(respawn(sn.ID)); err != nil {
			return err
		}
		cycles = append(cycles, float64(time.Since(t0)))
	}
	l.setNs("core.failover_cycle_us", median(cycles))
	w.LeaveAll(fog, players)
	return nil
}
