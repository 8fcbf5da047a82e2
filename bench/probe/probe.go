// Package probe holds the benchmark's wire-level clients: a probe player
// (action connection to the cloud plus a stream subscription at a
// supernode), a supernode-role observer of the cloud's update stream, and a
// one-shot stream join. They speak proto frames over plain net connections
// and share no code with the live package's own clients, so what they time is
// the deployment as a peer sees it, not a second copy of its internals.
package probe

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// ioTimeout bounds every handshake read; a deployment that takes longer to
// answer a hello or a join on loopback is broken, not slow.
const ioTimeout = 5 * time.Second

// Echo is one observation of an action stamp: the first frame on a
// connection that carried a stamp newer than any before it.
type Echo struct {
	Player int64
	Stamp  time.Duration
	At     time.Time
}

// First returns the arrival time of the first echo whose stamp is at least
// stamp, or false when none arrived. Echoes must be in arrival order, as the
// readers record them; stamps then increase too, because every hop forwards
// only the freshest stamp it has seen.
func First(echoes []Echo, stamp time.Duration) (time.Time, bool) {
	lo, hi := 0, len(echoes)
	for lo < hi {
		mid := (lo + hi) / 2
		if echoes[mid].Stamp < stamp {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(echoes) {
		return time.Time{}, false
	}
	return echoes[lo].At, true
}

func dial(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", addr)
}

func writeFrame(conn net.Conn, t proto.MsgType, payload []byte) error {
	_, err := conn.Write(proto.AppendFrame(nil, t, payload))
	return err
}

// expectAck reads one frame and requires an OK acknowledgement.
func expectAck(conn net.Conn, buf *[]byte) error {
	conn.SetReadDeadline(time.Now().Add(ioTimeout))
	defer conn.SetReadDeadline(time.Time{})
	typ, payload, err := proto.ReadFrameReuse(conn, buf)
	if err != nil {
		return err
	}
	if typ != proto.TAck {
		return fmt.Errorf("probe: frame type %d where an ack was due", typ)
	}
	ack, err := proto.UnmarshalAck(payload)
	if err != nil {
		return err
	}
	if ack.Code != proto.AckOK {
		return fmt.Errorf("probe: request refused (ack code %d)", ack.Code)
	}
	return nil
}

// Player is a probe player. Its reader goroutine counts segments, checks
// that sequence numbers strictly increase, and records an Echo each time the
// stream's action stamp advances.
type Player struct {
	ID int64

	act net.Conn
	str net.Conn

	segments  atomic.Int64
	bytes     atomic.Int64
	seqBreaks atomic.Int64 // segments whose Seq did not exceed the previous one

	mu     sync.Mutex
	echoes []Echo

	frame []byte // action encode scratch, owned by the single Act caller
	done  chan struct{}
}

// DialPlayer connects a probe player: hello and ack on the cloud's action
// port, then join and ack on the supernode's stream port. Segments are
// consumed from the moment it returns.
func DialPlayer(ctx context.Context, cloudAddr, streamAddr string, join proto.JoinStream) (*Player, error) {
	act, err := dial(ctx, cloudAddr)
	if err != nil {
		return nil, fmt.Errorf("probe: dial cloud: %w", err)
	}
	var buf []byte
	hello := proto.MarshalHello(proto.Hello{Role: proto.RolePlayerActions, ID: join.Player})
	if err := writeFrame(act, proto.THello, hello); err == nil {
		err = expectAck(act, &buf)
	}
	if err != nil {
		act.Close()
		return nil, fmt.Errorf("probe: player %d hello: %w", join.Player, err)
	}
	str, err := dial(ctx, streamAddr)
	if err == nil {
		if err = writeFrame(str, proto.TJoinStream, proto.MarshalJoinStream(join)); err == nil {
			err = expectAck(str, &buf)
		}
		if err != nil {
			str.Close()
		}
	}
	if err != nil {
		act.Close()
		return nil, fmt.Errorf("probe: player %d join %s: %w", join.Player, streamAddr, err)
	}
	p := &Player{ID: join.Player, act: act, str: str, done: make(chan struct{})}
	go p.read(buf)
	return p, nil
}

func (p *Player) read(buf []byte) {
	defer close(p.done)
	var (
		seg       proto.Segment
		lastSeq   int64 = -1
		lastStamp time.Duration
	)
	for {
		typ, payload, err := proto.ReadFrameReuse(p.str, &buf)
		at := time.Now()
		if err != nil {
			return
		}
		if typ != proto.TSegment || proto.UnmarshalSegmentInto(payload, &seg) != nil {
			continue
		}
		p.segments.Add(1)
		p.bytes.Add(int64(len(seg.Payload)))
		if seg.Seq <= lastSeq {
			p.seqBreaks.Add(1)
		}
		lastSeq = seg.Seq
		if seg.ActionIssued > lastStamp {
			lastStamp = seg.ActionIssued
			p.mu.Lock()
			p.echoes = append(p.echoes, Echo{Player: p.ID, Stamp: lastStamp, At: at})
			p.mu.Unlock()
		}
	}
}

// Act writes one action frame on the player's cloud connection. It is not
// safe for concurrent use: one sender goroutine per player.
func (p *Player) Act(stamp time.Duration, act world.Action) error {
	act.Player = p.ID
	p.frame = proto.BeginFrame(p.frame[:0], proto.TAction)
	p.frame = proto.AppendAction(p.frame, proto.Action{Player: p.ID, Issued: stamp, Act: act})
	if err := proto.FinishFrame(p.frame, 0); err != nil {
		return err
	}
	_, err := p.act.Write(p.frame)
	return err
}

// Segments returns how many segments have arrived so far.
func (p *Player) Segments() int64 { return p.segments.Load() }

// Bytes returns the segment payload bytes received so far.
func (p *Player) Bytes() int64 { return p.bytes.Load() }

// Echoes returns a copy of the stamp echoes recorded so far, in arrival
// order.
func (p *Player) Echoes() []Echo {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Echo(nil), p.echoes...)
}

// SeqBreaks returns how many segments arrived with a sequence number that
// did not exceed its predecessor's.
func (p *Player) SeqBreaks() int64 { return p.seqBreaks.Load() }

// Close drops both connections and waits for the reader to exit.
func (p *Player) Close() {
	p.act.Close()
	p.str.Close()
	<-p.done
}

// Observer subscribes to the cloud in the supernode role and records when
// each player's action stamp comes out of the cloud's tick — the boundary
// between "waiting for the cloud" and "waiting for the supernode".
type Observer struct {
	conn net.Conn

	deltas atomic.Int64

	mu     sync.Mutex
	echoes map[int64][]Echo

	done chan struct{}
}

// DialObserver subscribes under the given supernode ID, which must not
// collide with a real supernode's.
func DialObserver(ctx context.Context, cloudAddr string, id int64) (*Observer, error) {
	conn, err := dial(ctx, cloudAddr)
	if err != nil {
		return nil, fmt.Errorf("probe: dial cloud: %w", err)
	}
	hello := proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: id})
	if err := writeFrame(conn, proto.THello, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("probe: observer hello: %w", err)
	}
	o := &Observer{conn: conn, echoes: make(map[int64][]Echo), done: make(chan struct{})}
	go o.read()
	return o, nil
}

func (o *Observer) read() {
	defer close(o.done)
	var buf []byte
	for {
		typ, payload, err := proto.ReadFrameReuse(o.conn, &buf)
		at := time.Now()
		if err != nil {
			return
		}
		switch typ {
		case proto.TDelta:
			o.deltas.Add(1)
		case proto.TAction:
			a, err := proto.UnmarshalAction(payload)
			if err != nil {
				continue
			}
			o.mu.Lock()
			es := o.echoes[a.Player]
			if n := len(es); n == 0 || a.Issued > es[n-1].Stamp {
				o.echoes[a.Player] = append(es, Echo{Player: a.Player, Stamp: a.Issued, At: at})
			}
			o.mu.Unlock()
		}
	}
}

// Deltas returns how many world updates have arrived (one per cloud tick,
// after the subscription snapshot).
func (o *Observer) Deltas() int64 { return o.deltas.Load() }

// Echoes returns a copy of one player's stamp echoes, in arrival order.
func (o *Observer) Echoes(player int64) []Echo {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Echo(nil), o.echoes[player]...)
}

// Close drops the subscription and waits for the reader to exit.
func (o *Observer) Close() {
	o.conn.Close()
	<-o.done
}

// JoinTimes are the probe-visible boundaries of one stream join.
type JoinTimes struct {
	Dialed time.Time // connection established
	Joined time.Time // join frame written
	Acked  time.Time // ack read
	First  time.Time // first segment read
}

// JoinOnce dials a stream address, joins, waits for the ack and the first
// segment, and hangs up — one departure-terminated session's data path.
func JoinOnce(ctx context.Context, addr string, join proto.JoinStream) (JoinTimes, error) {
	var jt JoinTimes
	conn, err := dial(ctx, addr)
	if err != nil {
		return jt, fmt.Errorf("probe: dial %s: %w", addr, err)
	}
	defer conn.Close()
	jt.Dialed = time.Now()
	if err := writeFrame(conn, proto.TJoinStream, proto.MarshalJoinStream(join)); err != nil {
		return jt, fmt.Errorf("probe: join %s: %w", addr, err)
	}
	jt.Joined = time.Now()
	var buf []byte
	if err := expectAck(conn, &buf); err != nil {
		return jt, fmt.Errorf("probe: join %s: %w", addr, err)
	}
	jt.Acked = time.Now()
	conn.SetReadDeadline(jt.Acked.Add(ioTimeout))
	for {
		typ, payload, err := proto.ReadFrameReuse(conn, &buf)
		if err != nil {
			return jt, fmt.Errorf("probe: first segment from %s: %w", addr, err)
		}
		if typ != proto.TSegment {
			continue
		}
		var seg proto.Segment
		if err := proto.UnmarshalSegmentInto(payload, &seg); err != nil {
			return jt, fmt.Errorf("probe: first segment from %s: %w", addr, err)
		}
		if seg.Player != join.Player {
			return jt, fmt.Errorf("probe: segment for player %d on player %d's stream", seg.Player, join.Player)
		}
		jt.First = time.Now()
		return jt, nil
	}
}
