package coord

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

// Worker is a coordinator-registered supernode: the serving supernode plus
// the control loop that registers it and streams capacity/occupancy reports
// whose arrival gaps drive the coordinator's failure detector.
//
// The worker watches back: every report is answered by a TSync beacon, and a
// phi detector on coordinator silence drops the worker into safe mode — keep
// serving every existing session, refuse new placements (AckSafeMode), and
// trust worker-side lease expiry rather than coordinator churn — until the
// beacons resume. TSync also carries the coordinator's clock, so the worker
// estimates skew and judges ticket expiries on the coordinator's timeline.
type Worker struct {
	sn   *live.Supernode
	cfg  live.Config
	opts []live.Option

	start time.Time

	mu       sync.Mutex
	link     live.Transport
	ladder   *health.Overload
	coordDet *health.Detector
	skew     int64 // coordinator clock minus local clock, nanoseconds
	synced   bool  // at least one TSync consumed
	leaseTTL time.Duration
	draining bool
	closed   bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// StartWorker launches a worker: a supernode (Role RoleSupernode with
// CoordAddr set) that registers with the coordinator and reports every
// ReportEvery. The report loop survives coordinator restarts by re-dialing
// and re-registering when the control link dies; a re-registration carries
// the worker's live-session list so the coordinator reconciles rather than
// trusting stale state.
func StartWorker(cfg live.Config, opts ...live.Option) (*Worker, error) {
	if cfg.Role != live.RoleSupernode || cfg.CoordAddr == "" {
		return nil, fmt.Errorf("coord: StartWorker needs Role %q with CoordAddr set, got %q/%q",
			live.RoleSupernode, cfg.Role, cfg.CoordAddr)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SkewTolerance == 0 {
		cfg.SkewTolerance = live.DefaultSkewTolerance
	}
	ladder, err := health.NewOverload(cfg.Overload, nil, nil)
	if err != nil {
		return nil, err
	}
	w := &Worker{
		cfg:      cfg,
		opts:     opts,
		start:    time.Now(),
		ladder:   ladder,
		coordDet: health.NewDetector(cfg.Detector),
		stop:     make(chan struct{}),
	}
	// The supernode's join gate is the worker's lease and safe-mode
	// enforcement point.
	snOpts := append(append([]live.Option{}, opts...), live.WithJoinGate(w.gate))
	sn, err := live.NewSupernode(cfg, snOpts...)
	if err != nil {
		return nil, err
	}
	w.sn = sn
	w.coordDet.Reset(w.lnow())
	link, err := w.connect()
	if err != nil {
		sn.Close()
		return nil, err
	}
	w.setLink(link)
	w.wg.Add(1)
	go w.reportLoop()
	return w, nil
}

// lnow is the worker's monotonic clock (offset from process start), the same
// Duration form every detector in the tree uses.
func (w *Worker) lnow() time.Duration { return time.Since(w.start) }

// dialCtx bounds a coordinator dial at 10s and additionally cancels it the
// moment Close is called, so a worker shutting down mid-reconnect exits
// promptly instead of riding out the full dial timeout.
func (w *Worker) dialCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	go func() {
		select {
		case <-w.stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// connect dials the coordinator and registers the worker's current state,
// including the live-session list the coordinator reconciles against.
func (w *Worker) connect() (live.Transport, error) {
	ctx, cancel := w.dialCtx()
	defer cancel()
	link, err := live.Dial(ctx, w.cfg, w.opts...)
	if err != nil {
		return nil, err
	}
	reg := proto.Register{
		Worker:    w.cfg.ID,
		Capacity:  int32(w.cfg.Capacity),
		Load:      int32(w.sn.SessionCount()),
		X:         w.cfg.X,
		Y:         w.cfg.Y,
		Transport: streamCode(w.cfg.Transport),
		Addr:      w.sn.Addr(),
		Sessions:  w.sn.SessionIDs(),
	}
	if !link.Send(proto.TRegister, proto.MarshalRegister(reg)) {
		link.Close()
		return nil, fmt.Errorf("coord: worker %d registration send failed", w.cfg.ID)
	}
	return link, nil
}

// setLink installs a fresh control link and starts its receive loop (TSync
// beacons feed the partition detector and the skew estimate). A reconnect
// that races Close hands the fresh link straight to Close's teardown.
func (w *Worker) setLink(link live.Transport) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		link.Close()
		return
	}
	w.link = link
	w.mu.Unlock()
	w.wg.Add(1)
	go w.recvLoop(link)
}

// recvLoop consumes coordinator frames on one control link until it dies.
func (w *Worker) recvLoop(link live.Transport) {
	defer w.wg.Done()
	for {
		typ, payload, err := link.Recv()
		if err != nil {
			return
		}
		if typ != proto.TSync {
			continue // registration acks and anything newer
		}
		s, err := proto.UnmarshalSync(payload)
		if err != nil {
			continue
		}
		now := w.lnow()
		w.mu.Lock()
		w.coordDet.Heartbeat(now)
		w.skew = s.Now - int64(now)
		w.synced = true
		w.leaseTTL = time.Duration(s.LeaseTTL)
		w.mu.Unlock()
	}
}

// reportLoop streams occupancy reports; a dead link triggers reconnection
// (with registration), so a restarted coordinator re-learns the worker.
func (w *Worker) reportLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.cfg.ReportEvery)
	defer ticker.Stop()
	seq := uint64(0)
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		seq++
		r := w.reportMsg(seq)
		w.mu.Lock()
		link := w.link
		w.mu.Unlock()
		if link.Send(proto.TReport, proto.AppendReport(nil, r)) && link.Err() == nil {
			continue
		}
		link.Close()
		fresh, err := w.connect()
		if err != nil {
			// Coordinator still unreachable; keep the dead link and retry
			// on the next tick.
			continue
		}
		w.setLink(fresh)
	}
}

// reportMsg snapshots the worker's beacon: occupancy, the local overload
// ladder's verdict on it, and the drain flag.
func (w *Worker) reportMsg(seq uint64) proto.Report {
	load := w.sn.SessionCount()
	w.mu.Lock()
	w.ladder.Observe(w.cfg.ID, load, w.cfg.Capacity)
	level := w.ladder.State(w.cfg.ID)
	draining := w.draining
	w.mu.Unlock()
	r := proto.Report{
		Worker:   w.cfg.ID,
		Seq:      seq,
		Load:     int32(load),
		Capacity: int32(w.cfg.Capacity),
		Level:    uint8(level),
	}
	if draining {
		r.Draining = 1
	}
	return r
}

// gate is the supernode's join admission hook. Known players (an existing
// stream re-keying or keepalive-rejoining) always pass: safe mode and lease
// expiry never interrupt a session already being served. Unknown players are
// refused in safe mode, and — when the deployment runs leases — must present
// a verifiable, unexpired ticket naming this worker or its backup ring.
func (w *Worker) gate(join proto.JoinStream, known bool) uint32 {
	if known {
		return proto.AckOK
	}
	now := w.lnow()
	w.mu.Lock()
	safe := w.coordDet.Suspect(now)
	skew := w.skew
	ttl := w.leaseTTL
	w.mu.Unlock()
	if safe {
		return proto.AckSafeMode
	}
	if ttl <= 0 {
		return proto.AckOK
	}
	t, err := proto.UnmarshalTicket(join.Ticket)
	if err != nil || !VerifyTicket([]byte(w.cfg.TicketKey), t) || t.Player != join.Player {
		return proto.AckRefused
	}
	if t.Worker != w.cfg.ID && t.Addr != w.sn.Addr() && !ringHas(t.Backups, w.sn.Addr()) {
		return proto.AckRefused
	}
	if t.Expiry > 0 {
		// Judge expiry on the coordinator's estimated clock, slack by the
		// configured skew tolerance in the player's favor.
		coordNow := int64(now) + skew
		if coordNow >= t.Expiry+int64(w.cfg.SkewTolerance) {
			return proto.AckExpired
		}
	}
	return proto.AckOK
}

func ringHas(ring []string, addr string) bool {
	for _, a := range ring {
		if a == addr {
			return true
		}
	}
	return false
}

// SafeMode reports whether the worker currently distrusts the coordinator
// (the phi detector fired on TSync silence).
func (w *Worker) SafeMode() bool {
	now := w.lnow()
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.coordDet.Suspect(now)
}

// Skew returns the latest estimate of the coordinator clock minus the local
// clock, and whether any TSync has been observed to base it on.
func (w *Worker) Skew() (time.Duration, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return time.Duration(w.skew), w.synced
}

// LeaseTTL returns the lease duration learned from the coordinator (zero
// until a TSync arrives or when the deployment runs without leases).
func (w *Worker) LeaseTTL() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.leaseTTL
}

// Draining reports whether Drain has been requested.
func (w *Worker) Draining() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.draining
}

// Drain asks the coordinator to move every session off this worker, waits up
// to DrainTimeout for the handoffs to complete, then shuts down. The drain
// intent is announced immediately (an out-of-band Seq-0 report, which the
// placer accepts regardless of report ordering) and re-announced by every
// periodic report until the worker exits. Returns true when the supernode
// emptied before the deadline — a zero-interruption handoff.
func (w *Worker) Drain() bool {
	w.mu.Lock()
	already := w.draining
	w.draining = true
	link := w.link
	w.mu.Unlock()
	if !already && link != nil {
		link.Send(proto.TReport, proto.AppendReport(nil, w.reportMsg(0)))
	}
	timeout := w.cfg.DrainTimeout
	if timeout <= 0 {
		timeout = live.DefaultDrainTimeout
	}
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	drained := false
	for time.Now().Before(deadline) {
		if w.sn.SessionCount() == 0 {
			drained = true
			break
		}
		select {
		case <-w.stop:
			w.Close()
			return false
		case <-tick.C:
		}
	}
	w.Close()
	return drained
}

// Addr returns the worker's player-facing stream address.
func (w *Worker) Addr() string { return w.sn.Addr() }

// ID returns the worker's identity.
func (w *Worker) ID() int64 { return w.cfg.ID }

// Close stops reporting and shuts the supernode down. Safe to call twice.
func (w *Worker) Close() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	w.mu.Lock()
	w.closed = true
	link := w.link
	w.mu.Unlock()
	if link != nil {
		// Closing the link unparks the recvLoop before wg.Wait.
		link.Close()
	}
	w.wg.Wait()
	w.sn.Close()
}

// streamCode maps the live transport name onto the wire code tickets carry.
func streamCode(t string) uint8 {
	if t == live.TransportUDP {
		return proto.StreamUDP
	}
	return proto.StreamTCP
}

// streamName maps a ticket's wire code back onto the live transport name.
func streamName(c uint8) string {
	if c == proto.StreamUDP {
		return live.TransportUDP
	}
	return live.TransportTCP
}
