package live

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// Cloud is the live authoritative game server: it accepts player action
// connections and supernode update subscriptions, ticks the virtual world
// at a fixed rate, and ships deltas (plus the freshest action stamp per
// player) to every subscribed supernode — its own direct-stream one among
// them.
type Cloud struct {
	cfg  Config // World resolved through WorldConfig
	opts Options

	ln net.Listener

	// direct serves the players whose first frame is a TJoinStream — the
	// last-resort fallback when every supernode in a player's ring is
	// unreachable — as any supernode serves its players. It is subscribed
	// in-process under directSub. Nil when Config.FPS is zero: such joins are
	// refused.
	direct *Supernode

	mu      sync.Mutex
	w       *world.World
	pending []world.Action
	stamps  map[int64]time.Duration // freshest Issued per player, not yet shipped
	// acting counts each player's open action connections: the last one to
	// close takes the player's avatar and stamps with it.
	acting map[int64]int
	subs   map[int64]*cloudSub
	closed bool
	// tickOnce encode arenas (mu-guarded): stamp frames are appended
	// back-to-back into encScratch with stampOffs marking boundaries, and
	// the delta from each version in fromScratch — the distinct versions the
	// subscriptions hold, one in steady state — is encoded once into
	// deltaScratch. Send copies payloads synchronously, so the reused
	// storage is safe to share across subs and ticks.
	encScratch   []byte
	stampOffs    []int
	fromScratch  []uint64
	deltaScratch []byte

	wg   sync.WaitGroup
	stop chan struct{}
}

type cloudSub struct {
	link    Transport
	version uint64
}

// directSub is the subscription ID of the cloud's own supernode, which no
// hello may claim.
const directSub = math.MinInt64

// NewCloud starts the cloud server described by cfg (Role must be RoleCloud)
// plus runtime options: DelayFor injects the one-way delay toward each
// subscribing supernode (keyed by its hello ID) and each direct-stream player
// (keyed by player ID), Obs registers their link metrics
// (cloudfog_link_*{link="cloud_to_sn<ID>"} and {link="cloud_to_p<ID>"}) and
// the direct streams' frame counters (sn="cloud").
func NewCloud(cfg Config, opts ...Option) (*Cloud, error) {
	if cfg.Role != RoleCloud {
		return nil, fmt.Errorf("live: NewCloud on Config.Role %q", cfg.Role)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.World = cfg.WorldConfig()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", cfg.Addr, err)
	}
	c := &Cloud{
		cfg:    cfg,
		opts:   BuildOptions(opts...),
		ln:     ln,
		w:      world.New(cfg.World),
		stamps: make(map[int64]time.Duration),
		acting: make(map[int64]int),
		subs:   make(map[int64]*cloudSub),
		stop:   make(chan struct{}),
	}
	if cfg.FPS > 0 {
		// A subscription like serveSupernode's, over a pipe: a snapshot, then
		// the stamps and deltas every tick sends.
		feed, link := NewPipeTransport(LinkOptions{})
		link.Send(proto.TDelta, proto.AppendDelta(nil, c.w.Snapshot()))
		c.subs[directSub] = &cloudSub{link: link, version: c.w.Version()}
		c.direct = newSupernode(cfg.FPS, c.opts, "cloud", "cloud", feed)
	}
	c.wg.Add(2)
	go c.accept()
	go c.loop()
	return c, nil
}

// Addr returns the cloud's listen address.
func (c *Cloud) Addr() string { return c.ln.Addr().String() }

// World grants locked access to the authoritative world (for tests and
// seeding objects).
func (c *Cloud) World(f func(w *world.World)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f(c.w)
}

func (c *Cloud) accept() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go c.serveConn(conn)
	}
}

func (c *Cloud) serveConn(conn net.Conn) {
	defer c.wg.Done()
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return
	}
	switch typ {
	case proto.THello:
		hello, err := proto.UnmarshalHello(payload)
		if err != nil {
			conn.Close()
			return
		}
		switch {
		case hello.Role == proto.RolePlayerActions:
			c.servePlayer(conn, hello.ID)
		case hello.Role == proto.RoleSupernode && hello.ID != directSub:
			c.serveSupernode(conn, hello.ID)
		default:
			conn.Close()
		}
	case proto.TJoinStream:
		if c.direct == nil {
			// Refused as a supernode refuses, so a player's report names it.
			proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{Code: proto.AckRefused}))
			conn.Close()
			return
		}
		c.direct.servePlayer(conn, payload)
	default:
		conn.Close()
	}
}

// servePlayer spawns a player's avatar, ingests its action stream, and when
// the player's last connection ends forgets the player: the avatar despawns
// (every replica drops it on its next delta) and the stamps go, so what the
// cloud holds, steps and snapshots follows who is connected, not who ever was.
func (c *Cloud) servePlayer(conn net.Conn, playerID int64) {
	defer conn.Close()
	c.mu.Lock()
	c.acting[playerID]++
	defer func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.acting[playerID]--; c.acting[playerID] > 0 {
			return
		}
		delete(c.acting, playerID)
		delete(c.stamps, playerID)
		if av := c.w.Avatar(playerID); av != nil {
			c.w.Remove(av.ID)
		}
	}()
	if c.w.Avatar(playerID) == nil {
		// Deterministic spawn position derived from the player ID.
		b := c.cfg.World.Bounds
		x := b.Min.X + float64(uint64(playerID)*2654435761%1000)/1000*b.Width()
		y := b.Min.Y + float64(uint64(playerID)*40503%1000)/1000*b.Height()
		if _, err := c.w.SpawnAvatar(playerID, world.Vec2{X: x, Y: y}); err != nil {
			c.mu.Unlock()
			return
		}
	}
	c.mu.Unlock()
	proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{}))

	// Read through a buffer: a frame is a header and a payload, two read(2)
	// calls against the bare socket. Actions are a few dozen bytes.
	rd := bufio.NewReaderSize(conn, 256)
	var rbuf []byte
	for {
		typ, payload, err := proto.ReadFrameReuse(rd, &rbuf)
		if err != nil {
			return
		}
		if typ != proto.TAction {
			continue
		}
		a, err := proto.UnmarshalAction(payload)
		if err != nil || a.Player != playerID {
			continue
		}
		c.mu.Lock()
		c.pending = append(c.pending, a.Act)
		if a.Issued > c.stamps[playerID] {
			c.stamps[playerID] = a.Issued
		}
		c.mu.Unlock()
	}
}

// serveSupernode registers an update subscription; deltas are pushed from
// the tick loop, so this goroutine just waits for disconnect. The cloud
// holds no opinion on a supernode's liveness: that is the coordinator's, over
// worker reports.
func (c *Cloud) serveSupernode(conn net.Conn, snID int64) {
	link := NewLinkOpts(conn, c.opts.link(c.opts.delayFor(snID), fmt.Sprintf("cloud_to_sn%d", snID)))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		link.Close()
		return
	}
	// A new subscription starts from a snapshot.
	link.Send(proto.TDelta, proto.AppendDelta(nil, c.w.Snapshot()))
	replaced := c.subs[snID]
	c.subs[snID] = &cloudSub{link: link, version: c.w.Version()}
	c.mu.Unlock()
	if replaced != nil {
		// A re-subscribe under the same ID: the old link is on nobody's list
		// any more, so close it here, or its goroutine sits in Recv — and Close
		// waits on it — for as long as the peer keeps the old connection open.
		replaced.link.Close()
	}

	// The peer sends nothing after its hello; the read returns when it goes
	// away.
	for {
		if _, _, err := link.Recv(); err != nil {
			break
		}
	}
	c.mu.Lock()
	if sub, ok := c.subs[snID]; ok && sub.link == link {
		delete(c.subs, snID)
	}
	c.mu.Unlock()
	link.Close()
}

// loop ticks the world at the configured rate and fans deltas out.
func (c *Cloud) loop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tickOnce()
		}
	}
}

func (c *Cloud) tickOnce() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Apply(c.pending)
	c.pending = c.pending[:0]
	c.w.Step(c.cfg.Tick.Seconds())

	// Ship per-player action stamps, then the delta, to every supernode.
	// Stamp payloads are encoded once into the reused arena; subslices are
	// safe to hand to every sub because Send copies synchronously.
	c.encScratch = c.encScratch[:0]
	c.stampOffs = c.stampOffs[:0]
	for player, issued := range c.stamps {
		c.stampOffs = append(c.stampOffs, len(c.encScratch))
		c.encScratch = proto.AppendAction(c.encScratch, proto.Action{
			Player: player,
			Issued: issued,
		})
	}
	c.stampOffs = append(c.stampOffs, len(c.encScratch))
	for player := range c.stamps {
		delete(c.stamps, player)
	}
	// One DeltaSince and one encode per distinct version held, taken before
	// that version's subscriptions are sent anything: stamps and delta then
	// reach a link back to back and leave in one coalesced write. Step has
	// moved the world past every version held, so a subscription brought up
	// to date is not matched again under a later one.
	c.fromScratch = c.fromScratch[:0]
	for _, sub := range c.subs {
		if !slices.Contains(c.fromScratch, sub.version) {
			c.fromScratch = append(c.fromScratch, sub.version)
		}
	}
	minVersion := c.w.Version()
	for _, from := range c.fromScratch {
		d := c.w.DeltaSince(from)
		c.deltaScratch = proto.AppendDelta(c.deltaScratch[:0], d)
		for _, sub := range c.subs {
			if sub.version != from {
				continue
			}
			for i := 0; i+1 < len(c.stampOffs); i++ {
				sub.link.Send(proto.TAction, c.encScratch[c.stampOffs[i]:c.stampOffs[i+1]])
			}
			// A delta the link refused (send queue full, loss process) never
			// reaches the replica: leave the version where it is, so the next
			// tick's delta covers the gap (minVersion keeps the journal that
			// far back).
			if sub.link.Send(proto.TDelta, c.deltaScratch) {
				sub.version = d.ToVersion
			} else {
				minVersion = min(minVersion, from)
			}
		}
	}
	c.w.Compact(minVersion)
}

// Close shuts the cloud down.
func (c *Cloud) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	subs := make([]*cloudSub, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.mu.Unlock()

	close(c.stop)
	c.ln.Close()
	for _, s := range subs {
		s.link.Close()
	}
	if c.direct != nil {
		// Closing the direct streams ends the servePlayer calls c.wg waits on.
		c.direct.Close()
	}
	c.wg.Wait()
}
