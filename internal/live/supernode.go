package live

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/adapt"
	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/qoe"
	"cloudfog/internal/stream"
	"cloudfog/internal/world"
)

// Transport mode names for Config.Transport. TCP is the reliable stream
// default; UDP streams segments as datagrams — stale frames are dropped by
// the network instead of head-of-line blocking behind retransmits (the
// paper's Eq. 14 dropping policy happening naturally).
const (
	TransportTCP = "tcp"
	TransportUDP = "udp"
)

const (
	// udpExpiry is how long a supernode keeps a datagram player without
	// hearing a keepalive re-join before reclaiming the stream.
	udpExpiry = 2 * time.Second
	// udpKeepaliveEvery is the player-side re-join beacon period; it also
	// silently re-registers the player after a supernode respawn.
	udpKeepaliveEvery = 500 * time.Millisecond
	// udpStaleAfter is how long a datagram player tolerates stream silence
	// (re-sending joins meanwhile) before declaring the stream dead and
	// entering the failover path.
	udpStaleAfter = 1600 * time.Millisecond
)

func validTransport(t string) bool {
	return t == "" || t == TransportTCP || t == TransportUDP
}

// Supernode is a live fog node: it subscribes to the cloud's update stream,
// maintains a replica of the virtual world, and streams rendered video
// segments to its players at the frame rate. The cloud's direct streams are
// served by one too, subscribed in-process (see NewCloud).
type Supernode struct {
	seg  stream.Config // one segment: one period of the frame clock
	opts Options
	// name prefixes its stream links' metric labels, <name>_to_p<player>.
	name string

	cloudLink Transport
	ln        net.Listener // TCP player transport (nil in UDP mode and on the cloud)
	udp       *net.UDPConn // UDP player transport (nil in TCP mode)

	mu      sync.Mutex
	replica *world.Replica
	stamps  map[int64]time.Duration
	players map[int64]*playerStream
	closed  bool
	// Current chaos impairment, applied to every player stream link and
	// inherited by streams that join while it is active.
	impExtra time.Duration
	impLoss  float64

	// updated tells the render loop a delta was applied. Capacity 1 and
	// never blocked on: the loop needs to know the replica moved, not how
	// many times.
	updated chan struct{}
	// frames counts frames by trigger (obs.FrameStatsIn), each before it is
	// sent, so a peer holding a segment finds it counted.
	frames *obs.FrameStats

	wg   sync.WaitGroup
	stop chan struct{}
}

// SessionCount reports the number of live player streams — the occupancy a
// coordinator-registered worker reports upstream.
func (sn *Supernode) SessionCount() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return len(sn.players)
}

// SessionIDs returns the IDs of the players with live streams — the ground
// truth a re-registering worker reports so a reconnecting coordinator can
// reconcile its ledger.
func (sn *Supernode) SessionIDs() []int64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	ids := make([]int64, 0, len(sn.players))
	for pid := range sn.players {
		ids = append(ids, pid)
	}
	return ids
}

// hasPlayer reports whether the player currently has a live stream.
func (sn *Supernode) hasPlayer(pid int64) bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	_, ok := sn.players[pid]
	return ok
}

type playerStream struct {
	link Transport
	join proto.JoinStream
	out  qoe.Stream // sizes and levels its segments, as a simulated node's
	seq  int64
	// Datagram-mode liveness: source address of the join and the last time
	// a keepalive re-join refreshed it (zero for TCP streams, whose death
	// is detected by the connection read).
	raddr    string
	lastSeen time.Time
}

// NewSupernode starts the supernode described by cfg (Role must be
// RoleSupernode) plus runtime options: it dials the cloud and serves players
// on cfg.Addr. DelayFor injects the one-way delay toward each player's video
// stream, Obs registers the cloud-update link and each player stream link
// (cloudfog_link_*{link="sn<ID>_to_p<player>"}), JoinGate vets joins. (A
// config with CoordAddr set describes a coordinator-registered worker; start
// it through coord.StartWorker, which calls back into this constructor.)
func NewSupernode(cfg Config, opts ...Option) (*Supernode, error) {
	if cfg.Role != RoleSupernode {
		return nil, fmt.Errorf("live: NewSupernode on Config.Role %q", cfg.Role)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := BuildOptions(opts...)
	ctx, cancel := context.WithTimeout(context.Background(), dialDeadline)
	conn, err := dialBackoff(ctx, cfg.CloudAddr, cfg.ID)
	cancel()
	if err != nil {
		return nil, err
	}
	cloudLink := NewLinkOpts(conn, o.link(0, fmt.Sprintf("sn%d_to_cloud", cfg.ID)))
	if !cloudLink.Send(proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: cfg.ID})) {
		cloudLink.Close()
		return nil, fmt.Errorf("live: hello to cloud failed")
	}

	var (
		ln  net.Listener
		udp *net.UDPConn
	)
	if cfg.Transport == TransportUDP {
		uaddr, uerr := net.ResolveUDPAddr("udp", cfg.Addr)
		if uerr == nil {
			udp, uerr = net.ListenUDP("udp", uaddr)
		}
		if uerr != nil {
			cloudLink.Close()
			return nil, fmt.Errorf("live: listen udp %s: %w", cfg.Addr, uerr)
		}
	} else {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			cloudLink.Close()
			return nil, fmt.Errorf("live: listen %s: %w", cfg.Addr, err)
		}
	}
	sn := newSupernode(cfg.FPS, o, fmt.Sprintf("sn%d", cfg.ID), fmt.Sprint(cfg.ID), cloudLink)
	// Neither goroutine newSupernode started reads the player transport.
	sn.ln, sn.udp = ln, udp
	sn.wg.Add(1)
	if udp != nil {
		go sn.serveUDP()
	} else {
		go sn.accept()
	}
	return sn, nil
}

// newSupernode starts the serving half of a supernode on cloudLink, its
// update feed: the replica it keeps and the frame clock that renders its
// streams at fps. Its stream links are labelled <name>_to_p<player> and its
// frame counters sn=<frames>. The caller brings the player transport.
func newSupernode(fps int, o Options, name, frames string, cloudLink Transport) *Supernode {
	// Without a registry the frame counters still count, in one of their own.
	reg := o.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	seg := stream.DefaultConfig()
	seg.SegmentDuration = time.Second / time.Duration(fps)
	sn := &Supernode{
		seg:       seg,
		opts:      o,
		name:      name,
		cloudLink: cloudLink,
		replica:   world.NewReplica(),
		stamps:    make(map[int64]time.Duration),
		players:   make(map[int64]*playerStream),
		updated:   make(chan struct{}, 1),
		frames:    obs.FrameStatsIn(reg, frames),
		stop:      make(chan struct{}),
	}
	sn.wg.Add(2)
	go sn.consumeUpdates()
	go sn.renderLoop()
	return sn
}

// Addr returns the supernode's player-facing listen address.
func (sn *Supernode) Addr() string {
	if sn.udp != nil {
		return sn.udp.LocalAddr().String()
	}
	return sn.ln.Addr().String()
}

// consumeUpdates applies the cloud's delta stream to the replica.
func (sn *Supernode) consumeUpdates() {
	defer sn.wg.Done()
	for {
		typ, payload, err := sn.cloudLink.Recv()
		if err != nil {
			return
		}
		switch typ {
		case proto.TDelta:
			d, err := proto.UnmarshalDelta(payload)
			if err != nil {
				continue
			}
			sn.mu.Lock()
			// Whose avatar a removed entity was, only the replica before
			// Apply can say.
			var left []int64
			for _, id := range d.Removed {
				if e, ok := sn.replica.Get(id); ok && e.Kind == world.KindAvatar {
					left = append(left, e.Owner)
				}
			}
			if applyErr := sn.replica.Apply(d); applyErr != nil {
				// Version gap. The cloud advances a subscription's version
				// only past deltas its link accepted, so a delta shed by a
				// congested link is covered by the next one and this is
				// not expected; skip the delta rather than corrupt the
				// replica.
				sn.mu.Unlock()
				continue
			}
			// A player whose avatar is gone has left the cloud: forget its
			// action stamp, or the map keeps a slot for everyone who ever
			// acted. A snapshot says who is left all at once.
			if d.Full {
				for player := range sn.stamps {
					left = append(left, player)
				}
			}
			for _, player := range left {
				if _, ok := sn.replica.Avatar(player); !ok {
					delete(sn.stamps, player)
				}
			}
			sn.mu.Unlock()
			select {
			case sn.updated <- struct{}{}:
			default:
			}
		case proto.TAction:
			a, err := proto.UnmarshalAction(payload)
			if err != nil {
				continue
			}
			sn.mu.Lock()
			if a.Issued > sn.stamps[a.Player] {
				sn.stamps[a.Player] = a.Issued
			}
			sn.mu.Unlock()
		}
	}
}

func (sn *Supernode) accept() {
	defer sn.wg.Done()
	for {
		conn, err := sn.ln.Accept()
		if err != nil {
			return
		}
		sn.wg.Add(1)
		go func() {
			defer sn.wg.Done()
			typ, payload, err := proto.ReadFrame(conn)
			if err != nil || typ != proto.TJoinStream {
				conn.Close()
				return
			}
			sn.servePlayer(conn, payload)
		}()
	}
}

// serveUDP demuxes the shared datagram socket: every inbound datagram is a
// complete frame, and the only frame players send here is TJoinStream —
// both the initial subscription and the periodic keepalive re-join.
func (sn *Supernode) serveUDP() {
	defer sn.wg.Done()
	buf := make([]byte, proto.FrameHeaderLen+proto.MaxDatagram)
	for {
		n, raddr, err := sn.udp.ReadFromUDP(buf)
		if err != nil {
			return
		}
		typ, payload, perr := proto.ParseDatagram(buf[:n])
		if perr != nil || typ != proto.TJoinStream {
			continue
		}
		sn.joinDatagram(raddr, payload)
	}
}

// joinDatagram registers (or refreshes) a datagram player stream. The join
// doubles as the liveness keepalive: a re-join from the same source address
// refreshes lastSeen, one from a new address replaces the stream (the
// player respawned), and silence past udpExpiry reclaims it.
func (sn *Supernode) joinDatagram(raddr *net.UDPAddr, payload []byte) {
	join, g, refuse, ok := sn.vetJoin(payload)
	if !ok {
		if refuse != nil {
			sn.udp.WriteToUDP(proto.AppendFrame(nil, proto.TAck, refuse), raddr)
		}
		return
	}
	addr := raddr.String()
	now := time.Now()
	var replaced Transport
	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		return
	}
	if ps, ok := sn.players[join.Player]; ok {
		if ps.raddr == addr {
			ps.lastSeen = now
			link := ps.link
			sn.mu.Unlock()
			link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
			return
		}
		delete(sn.players, join.Player)
		replaced = ps.link
	}
	link := NewDatagramLink(&addrConn{sock: sn.udp, raddr: raddr}, sn.streamLinkOptions(join.Player))
	link.Impair(sn.impExtra, sn.impLoss)
	ps := &playerStream{link: link, join: join, raddr: addr, lastSeen: now}
	sn.players[join.Player] = ps
	sn.admit(ps, g)
	sn.mu.Unlock()
	if replaced != nil {
		replaced.Close()
	}
}

// vetJoin decodes a join and puts it to the game table and the join gate —
// the one admission sequence of both transports. When the join is refused,
// refuse is the ack payload to answer with; a join that does not decode gets
// no answer (ok false, refuse nil).
func (sn *Supernode) vetJoin(payload []byte) (join proto.JoinStream, g game.Game, refuse []byte, ok bool) {
	join, err := proto.UnmarshalJoinStream(payload)
	if err != nil {
		return join, g, nil, false
	}
	code := proto.AckOK
	if g, err = game.ByID(int(join.GameID)); err != nil {
		code = proto.AckRefused
	} else if gate := sn.opts.JoinGate; gate != nil {
		code = gate(join, sn.hasPlayer(join.Player))
	}
	if code != proto.AckOK {
		return join, g, proto.MarshalAck(proto.Ack{Code: code}), false
	}
	return join, g, nil, true
}

// servePlayer registers the stream subscription a TCP connection's first
// frame, the join payload, asked for, replacing — and closing — a stream the
// player already had here (it reconnected). Segments are pushed from the
// render loop; this returns when the player hangs up.
func (sn *Supernode) servePlayer(conn net.Conn, payload []byte) {
	join, g, refuse, ok := sn.vetJoin(payload)
	if !ok {
		if refuse != nil {
			proto.WriteFrame(conn, proto.TAck, refuse)
		}
		conn.Close()
		return
	}
	link := NewLinkOpts(conn, sn.streamLinkOptions(join.Player))

	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		link.Close()
		return
	}
	link.Impair(sn.impExtra, sn.impLoss)
	ps := &playerStream{link: link, join: join}
	replaced := sn.players[join.Player]
	sn.players[join.Player] = ps
	sn.admit(ps, g)
	sn.mu.Unlock()
	if replaced != nil {
		replaced.link.Close()
	}

	var buf [1]byte
	for {
		if _, err := conn.Read(buf[:]); err != nil {
			break
		}
	}
	sn.mu.Lock()
	if ps, ok := sn.players[join.Player]; ok && ps.link == link {
		delete(sn.players, join.Player)
	}
	sn.mu.Unlock()
	link.Close()
}

// streamLinkOptions is the delay and metrics of a player's stream link.
func (sn *Supernode) streamLinkOptions(player int64) LinkOptions {
	return sn.opts.link(sn.opts.delayFor(player), fmt.Sprintf("%s_to_p%d", sn.name, player))
}

// ImpairStreams applies a chaos impairment — extra one-way delay and a
// fractional frame loss rate — to every current player stream link, and to
// streams joining while it is active. Zeroes restore healthy links.
func (sn *Supernode) ImpairStreams(extra time.Duration, lossFrac float64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.impExtra = extra
	sn.impLoss = lossFrac
	for _, ps := range sn.players {
		ps.link.Impair(extra, lossFrac)
	}
}

// admit acknowledges a new stream's join, starts its serving state at the
// game's level under the join's cap, and renders its first frame at once: a
// new subscriber needs a frame before it can show anything, and the next
// frame of the clock is up to a whole period away. The caller holds sn.mu
// and has just registered ps, so the ack is queued ahead of any segment and
// the stream's Seq stays strictly increasing against the render loop.
func (sn *Supernode) admit(ps *playerStream, g game.Game) {
	sn.frames.Join.Inc()
	ps.out.Init(sn.seg, adapt.DefaultConfig(), ps.join.Player, g, int(ps.join.LevelCap))
	ps.link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
	sn.renderOne(ps.join.Player, ps)
}

// renderLoop renders a frame for every player whenever the frame clock says
// so: on the arrival of a delta while the cloud ticks at the frame rate, on
// the clock's deadline otherwise (see frameClock).
func (sn *Supernode) renderLoop() {
	defer sn.wg.Done()
	clock := newFrameClock(sn.seg.SegmentDuration, time.Now())
	timer := time.NewTimer(time.Until(clock.Deadline()))
	defer timer.Stop()
	for {
		select {
		case <-sn.stop:
			return
		case <-sn.updated:
			now := time.Now()
			if !clock.OnUpdate(now) {
				continue
			}
			sn.frames.Update.Inc()
			sn.renderFrame(now)
			if !timer.Stop() {
				// Fired while the frame was rendering; the frame just
				// rendered stands in for that deadline.
				select {
				case <-timer.C:
				default:
				}
			}
		case <-timer.C:
			now := time.Now()
			clock.OnDeadline(now)
			sn.frames.Deadline.Inc()
			sn.renderFrame(now)
		}
		timer.Reset(time.Until(clock.Deadline()))
	}
}

// renderFrame renders one segment for every player stream, and reclaims the
// datagram streams whose keepalives stopped.
func (sn *Supernode) renderFrame(now time.Time) {
	var expired []*playerStream
	sn.mu.Lock()
	for pid, ps := range sn.players {
		if ps.raddr != "" && now.Sub(ps.lastSeen) > udpExpiry {
			delete(sn.players, pid)
			expired = append(expired, ps)
			continue
		}
		sn.renderOne(pid, ps)
	}
	sn.mu.Unlock()
	for _, ps := range expired {
		ps.link.Close()
	}
}

// renderOne renders and sends one player's next segment: select the entities
// visible from the player's avatar, size the payload and stamp the level
// from the stream's serving state, stamp the freshest covered action. The
// caller holds sn.mu.
func (sn *Supernode) renderOne(pid int64, ps *playerStream) {
	center := world.Vec2{X: ps.join.ViewX, Y: ps.join.ViewY}
	// Follow the player's avatar once it exists in the replica.
	if av, ok := sn.replica.Avatar(pid); ok {
		center = av.Pos
	}
	visible := sn.replica.Visible(world.Viewport{Center: center, Radius: ps.join.ViewR})
	var enc stream.Segment
	ps.out.Encode(&enc, sn.stamps[pid], 0)
	seg := proto.Segment{
		Player:       pid,
		Seq:          ps.seq,
		Level:        uint8(ps.out.Level().Level),
		ActionIssued: enc.ActionTime,
	}
	ps.seq++
	// Render straight into a pooled wire frame: header, segment fields, then
	// the payload bytes in place — no Marshal copy.
	frame := ps.link.AcquireFrame(proto.TSegment)
	frame = proto.AppendSegmentHeader(frame, seg, enc.Bytes)
	frame = appendRenderPayload(frame, enc.Bytes, visible)
	ps.link.SendFrame(frame)
}

// appendRenderPayload appends n segment bytes to dst: a deterministic
// pattern seeded by the visible entities (stand-in for encoded video — the
// sizes and timing are what matter).
func appendRenderPayload(dst []byte, n int, visible []world.Entity) []byte {
	h := uint64(len(visible) + 1)
	for _, e := range visible {
		h = h*1099511628211 + uint64(e.ID)
	}
	for i := 0; i < n; i++ {
		h = h*6364136223846793005 + 1442695040888963407
		dst = append(dst, byte(h>>56))
	}
	return dst
}

// Close shuts the supernode down.
func (sn *Supernode) Close() {
	sn.mu.Lock()
	if sn.closed {
		sn.mu.Unlock()
		return
	}
	sn.closed = true
	players := make([]*playerStream, 0, len(sn.players))
	for _, ps := range sn.players {
		players = append(players, ps)
	}
	sn.mu.Unlock()

	close(sn.stop)
	if sn.ln != nil {
		sn.ln.Close()
	}
	if sn.udp != nil {
		sn.udp.Close()
	}
	sn.cloudLink.Close()
	for _, ps := range players {
		ps.link.Close()
	}
	sn.wg.Wait()
}
