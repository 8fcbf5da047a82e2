package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
)

// Coordinator is the control-plane server: it accepts worker registrations
// and reports, answers player placement requests with signed tickets, and
// pushes replacement tickets to affected players when a worker dies. Every
// control link is a TCP stream — a lost register or ticket would strand a
// worker or a player.
type Coordinator struct {
	cfg live.Config

	ln    net.Listener
	start time.Time

	mu      sync.Mutex
	placer  *Placer
	players map[int64]live.Transport
	conns   map[net.Conn]struct{}
	closed  bool

	wg   sync.WaitGroup
	stop chan struct{}
}

// StartCoordinator launches the coordinator described by cfg (Role must be
// RoleCoordinator). Workers and players share the one stream listener.
func StartCoordinator(cfg live.Config, opts ...live.Option) (*Coordinator, error) {
	if cfg.Role != live.RoleCoordinator {
		return nil, fmt.Errorf("coord: StartCoordinator on Config.Role %q", cfg.Role)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var stats *obs.CoordStats // nil: the placer keeps its books in a private registry
	if reg := live.BuildOptions(opts...).Obs; reg != nil {
		stats = obs.CoordStatsIn(reg)
	}
	bounds := cfg.WorldConfig().Bounds
	placer, err := NewPlacer(PlacerConfig{
		Width:      bounds.Max.X - bounds.Min.X,
		Height:     bounds.Max.Y - bounds.Min.Y,
		ShortlistK: cfg.ShortlistK,
		Backups:    cfg.Backups,
		Detector:   cfg.Detector,
		Overload:   cfg.Overload,
		TicketKey:  []byte(cfg.TicketKey),
		CloudAddr:  cfg.CloudAddr,
		LeaseTTL:   cfg.LeaseTTL,
		Stats:      stats,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		start:   time.Now(),
		placer:  placer,
		players: make(map[int64]live.Transport),
		conns:   make(map[net.Conn]struct{}),
		stop:    make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.sweepLoop()
	return c, nil
}

// Addr returns the coordinator's TCP listen address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Bound returns the worker-death detection latency guarantee.
func (c *Coordinator) Bound() time.Duration { return c.placer.Bound() }

// now is the coordinator's monotonic clock: offset from process start, the
// same Duration form the detectors and the sim engine use.
func (c *Coordinator) now() time.Duration { return time.Since(c.start) }

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

// serveConn speaks the control protocol on one accepted stream: worker
// connections carry TRegister/TReport frames, player connections carry one
// TPlace and then stay open to receive pushed TTicket frames — the player
// closing the connection is its departure.
func (c *Coordinator) serveConn(conn net.Conn) {
	defer c.wg.Done()
	link := live.NewLinkOpts(conn, live.LinkOptions{})
	defer link.Close()
	var player int64
	for {
		typ, payload, err := link.Recv()
		if err != nil {
			break
		}
		switch typ {
		case proto.TRegister:
			r, err := proto.UnmarshalRegister(payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			_, reps := c.placer.Register(c.now(), r)
			c.mu.Unlock()
			link.Send(proto.TAck, nil)
			c.pushSync(link)
			// Reconnect reconciliation: realigned sessions get their fresh
			// tickets pushed down still-open player control links.
			c.deliver(time.Now(), reps)
		case proto.TReport:
			r, err := proto.UnmarshalReport(payload)
			if err != nil {
				continue
			}
			c.mu.Lock()
			c.placer.Report(c.now(), r)
			c.mu.Unlock()
			c.pushSync(link)
		case proto.TTicket:
			// A TTicket frame arriving player→coordinator is a lease
			// renewal: answer with a fresh ticket on the same link.
			rn, err := proto.UnmarshalRenew(payload)
			if err != nil {
				continue
			}
			// Only the link that placed a player may renew it: the renewed
			// ticket is the credential a leased worker's join gate checks.
			t, ok := proto.Ticket{}, rn.Player == player
			if ok {
				c.mu.Lock()
				t, ok = c.placer.Renew(c.now(), rn.Player)
				c.mu.Unlock()
			}
			if !ok {
				// Unknown session, or not this link's: an empty-Addr ticket
				// tells the player its lease is gone and it must re-place.
				t = proto.Ticket{Player: rn.Player}
			}
			c.pushTicket(link, t)
		case proto.TPlace:
			pl, err := proto.UnmarshalPlace(payload)
			if err != nil {
				continue
			}
			// A link speaks for one player, and its close is that player's
			// departure: a second player placed here would outlive it.
			t, ok := proto.Ticket{}, player == 0 || pl.Player == player
			if ok {
				began := time.Now()
				c.mu.Lock()
				t, ok = c.placer.Place(c.now(), pl)
				if ok {
					player = pl.Player
					c.players[player] = link
				}
				c.mu.Unlock()
				c.placer.stats.PlacementNs.Observe(int64(time.Since(began)))
			}
			if !ok {
				// Rejection: a ticket with no address. The empty Addr is
				// the signal; no signature covers a non-placement.
				t = proto.Ticket{Player: pl.Player}
			}
			c.pushTicket(link, t)
		}
	}
	c.mu.Lock()
	delete(c.conns, conn)
	if player != 0 && c.players[player] == link {
		delete(c.players, player)
		c.placer.Depart(player)
	}
	c.mu.Unlock()
}

// pushTicket encodes a ticket on the link's pooled frame path.
func (c *Coordinator) pushTicket(link live.Transport, t proto.Ticket) bool {
	frame := link.AcquireFrame(proto.TTicket)
	frame = proto.AppendTicket(frame, t)
	return link.SendFrame(frame)
}

// pushSync answers a worker beacon with the coordinator's clock and lease
// TTL: the worker's partition detector feeds on these, and the clock lets it
// judge ticket expiries despite skew.
func (c *Coordinator) pushSync(link live.Transport) bool {
	frame := link.AcquireFrame(proto.TSync)
	frame = proto.AppendSync(frame, proto.Sync{Now: int64(c.now()), LeaseTTL: int64(c.cfg.LeaseTTL)})
	return link.SendFrame(frame)
}

// deliver pushes churn outcomes to the affected players: replacement tickets
// down open control links, and for expired leases the zombie control link is
// closed so the departed player's link state is reclaimed.
func (c *Coordinator) deliver(began time.Time, reps []Replacement) {
	if len(reps) == 0 {
		return
	}
	links := make([]live.Transport, len(reps))
	c.mu.Lock()
	for i, r := range reps {
		links[i] = c.players[r.Player]
		if r.Expired && links[i] != nil {
			delete(c.players, r.Player)
		}
	}
	c.mu.Unlock()
	for i, r := range reps {
		if links[i] == nil {
			continue
		}
		if r.Expired {
			links[i].Close()
			continue
		}
		if r.Dropped {
			continue
		}
		c.pushTicket(links[i], r.Ticket)
		c.placer.stats.ReplaceNs.Observe(int64(time.Since(began)))
	}
}

// sweepLoop evaluates the failure detectors every CheckEvery and pushes
// replacement tickets to the players a dead worker stranded. It also watches
// its own cadence: a tick arriving far later than scheduled means the
// coordinator process itself was paused (SIGSTOP, VM freeze) — the workers
// were fine, their silence is our fault — so the sweep rebases every detector
// and extends every lease instead of mass-burying the fleet.
func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	det := c.cfg.Detector.Defaulted()
	every := det.CheckEvery
	// The pause threshold keys on sweep cadence, not MaxSilence: phi
	// detectors adapt to the actual report cadence and can fire on far less
	// silence than the configured bound, so even a short coordinator freeze
	// would mass-bury a healthy fleet. A tick arriving 4+ periods late (at
	// least one detector interval) cannot be scheduler jitter at this
	// cadence; treat it as a pause. A spurious rebase only delays real
	// detection by one silence bound, so erring toward rebase is safe.
	pauseGap := 4 * every
	if det.Interval > pauseGap {
		pauseGap = det.Interval
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		began := time.Now()
		gap := began.Sub(last)
		last = began
		c.mu.Lock()
		if gap > pauseGap {
			c.placer.Rebase(c.now())
			c.mu.Unlock()
			continue
		}
		reps := c.placer.Sweep(c.now())
		c.mu.Unlock()
		c.deliver(began, reps)
	}
}

// Ledger snapshots the session accounting.
func (c *Coordinator) Ledger() Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placer.Ledger()
}

// WorkersAlive counts currently-registered live workers.
func (c *Coordinator) WorkersAlive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placer.WorkersAlive()
}

// Report is the JSON document `cloudfog-live coordinator -report` emits: the
// ledger plus its reconciliation verdict.
type Report struct {
	Ledger   Ledger `json:"ledger"`
	Balanced bool   `json:"balanced"`
	BoundNs  int64  `json:"detector_bound_ns"`
}

// WriteReport writes the reconciliation report as indented JSON.
func (c *Coordinator) WriteReport(w io.Writer) error {
	l := c.Ledger()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Report{Ledger: l, Balanced: l.Balanced(), BoundNs: int64(c.placer.Bound())})
}

// Close stops the server: the listener and every live worker and player
// control connection. Safe to call twice.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.conns))
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	close(c.stop)
	c.ln.Close()
	// Unblock every serveConn goroutine parked in Recv.
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
}
