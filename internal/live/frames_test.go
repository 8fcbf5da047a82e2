package live

import (
	"io"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// dialWith connects to addr and writes one opening frame. The caller closes
// the connection — before the server it reached, whose Close waits for it.
func dialWith(t *testing.T, addr string, typ proto.MsgType, payload []byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := proto.WriteFrame(conn, typ, payload); err != nil {
		conn.Close()
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	return conn
}

func readAck(t *testing.T, conn net.Conn) {
	t.Helper()
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.TAck {
		t.Fatalf("expected an ack, got frame type %v, error %v", typ, err)
	}
	if ack, err := proto.UnmarshalAck(payload); err != nil || ack.Code != proto.AckOK {
		t.Fatalf("join refused: %+v %v", ack, err)
	}
}

// stampTimes records when each action stamp was first seen at one point of
// the pipeline.
type stampTimes struct {
	mu sync.Mutex
	at map[time.Duration]time.Time
}

func (s *stampTimes) see(stamp time.Duration, at time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.at == nil {
		s.at = make(map[time.Duration]time.Time)
	}
	if _, ok := s.at[stamp]; !ok {
		s.at[stamp] = at
	}
}

func (s *stampTimes) get(stamp time.Duration) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.at[stamp]
	return at, ok
}

// TestFramesFollowUpdatesAtTheFrameRate is the response-path claim on a real
// deployment: with the cloud ticking at the frame rate, the supernode renders
// on each delta's arrival, so a stamp is on its way to the player a small
// fraction of a frame after the delta that carried it reached a subscriber
// beside the supernode — not half a frame later on average, as with a render
// ticker of its own.
func TestFramesFollowUpdatesAtTheFrameRate(t *testing.T) {
	const (
		fps    = 30
		player = 7
		every  = 47 * time.Millisecond // sweeps every phase of the cloud's tick
		n      = 40
	)
	period := time.Second / fps
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: period})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(), FPS: fps})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	// An observer subscribed beside the supernode: a stamp counts as seen
	// when the delta that follows it on the wire arrives.
	var seen, back stampTimes
	observer := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: 1000}))
	defer observer.Close()
	go func() {
		var buf []byte
		var pending []time.Duration
		for {
			typ, payload, err := proto.ReadFrameReuse(observer, &buf)
			at := time.Now()
			if err != nil {
				return
			}
			switch typ {
			case proto.TAction:
				if a, err := proto.UnmarshalAction(payload); err == nil && a.Player == player {
					pending = append(pending, a.Issued)
				}
			case proto.TDelta:
				for _, stamp := range pending {
					seen.see(stamp, at)
				}
				pending = pending[:0]
			}
		}
	}()

	actions := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RolePlayerActions, ID: player}))
	defer actions.Close()
	readAck(t, actions)
	stream := dialWith(t, sn.Addr(), proto.TJoinStream, proto.MarshalJoinStream(proto.JoinStream{
		Player: player, GameID: 4, ViewX: 5000, ViewY: 5000, ViewR: DefaultViewRadius, LevelCap: 4,
	}))
	defer stream.Close()
	readAck(t, stream)
	go func() {
		var buf []byte
		var seg proto.Segment
		for {
			typ, payload, err := proto.ReadFrameReuse(stream, &buf)
			at := time.Now()
			if err != nil {
				return
			}
			if typ == proto.TSegment && proto.UnmarshalSegmentInto(payload, &seg) == nil {
				back.see(seg.ActionIssued, at)
			}
		}
	}()

	// Let the clock lock before sampling.
	time.Sleep(10 * period)
	warmUpdate, warmDeadline := sn.frames.Update.Load(), sn.frames.Deadline.Load()
	for i := 1; i <= n; i++ {
		act := proto.Action{Player: player, Issued: time.Duration(i), Act: world.Action{
			Player: player, Kind: world.ActionMove, Target: world.Vec2{X: 100, Y: float64(100 * i)},
		}}
		if err := proto.WriteFrame(actions, proto.TAction, proto.AppendAction(nil, act)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(every)
	}
	time.Sleep(3 * period)
	update, deadline := sn.frames.Update.Load(), sn.frames.Deadline.Load()
	update, deadline = update-warmUpdate, deadline-warmDeadline

	var waits []time.Duration
	for i := 1; i <= n; i++ {
		out, ok1 := seen.get(time.Duration(i))
		in, ok2 := back.get(time.Duration(i))
		if ok1 && ok2 {
			waits = append(waits, in.Sub(out))
		}
	}
	// Two actions inside one cloud tick share a delta, and only the fresher
	// stamp travels on; most stamps must still make the whole trip.
	if len(waits) < n/2 {
		t.Fatalf("only %d of %d stamps were seen both leaving the cloud and coming back", len(waits), n)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	median := waits[len(waits)/2]
	t.Logf("delta to segment: median %v, longest %v over %d stamps; %d update-triggered, %d deadline-triggered frames",
		median, waits[len(waits)-1], len(waits), update, deadline)
	if median > period/4 {
		t.Errorf("median wait from delta to segment %v, want under a quarter frame (%v)", median, period/4)
	}
	if update*10 < (update+deadline)*9 {
		t.Errorf("%d update-triggered and %d deadline-triggered frames, want at least 90%% update-triggered", update, deadline)
	}
}

// TestFirstFrameAtJoin checks that a new stream's first segment follows the
// join's ack at once instead of waiting for the next frame of the clock.
func TestFirstFrameAtJoin(t *testing.T) {
	for _, transport := range []string{TransportTCP, TransportUDP} {
		t.Run(transport, func(t *testing.T) {
			cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Second / 30})
			if err != nil {
				t.Fatal(err)
			}
			defer cloud.Close()
			// One frame a second: a first segment that waited for the clock
			// would take most of a second.
			reg := obs.NewRegistry()
			sn, err := NewSupernode(Config{
				Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(), FPS: 1, Transport: transport,
			}, WithObs(reg))
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Close()

			conn, err := net.Dial(transport, sn.Addr())
			if err != nil {
				t.Fatal(err)
			}
			var link Transport
			if transport == TransportUDP {
				link = NewDatagramLink(conn, LinkOptions{})
			} else {
				link = NewLinkOpts(conn, LinkOptions{})
			}
			defer link.Close()
			// A frame that never comes fails the Recv waiting for it.
			defer time.AfterFunc(10*time.Second, link.Close).Stop()
			join := proto.JoinStream{Player: 3, GameID: 1, ViewX: 1, ViewY: 1, ViewR: DefaultViewRadius, LevelCap: 1}
			recv := func(want proto.MsgType) []byte {
				t.Helper()
				typ, payload, err := link.Recv()
				if err != nil || typ != want {
					t.Fatalf("expected frame type %v, got %v, error %v", want, typ, err)
				}
				return payload
			}
			link.Send(proto.TJoinStream, proto.MarshalJoinStream(join))
			recv(proto.TAck)
			acked := time.Now()
			payload := recv(proto.TSegment)
			if wait := time.Since(acked); wait > 10*time.Millisecond {
				t.Errorf("first segment %v after the ack, want within 10 ms", wait)
			}
			if seg, err := proto.UnmarshalSegment(payload); err != nil || seg.Player != join.Player || seg.Seq != 0 {
				t.Errorf("first segment %+v, error %v; want player %d, seq 0", seg, err, join.Player)
			}
			if transport == TransportUDP {
				// A datagram stream re-joins as its keepalive; that is
				// acknowledged, not rendered for.
				link.Send(proto.TJoinStream, proto.MarshalJoinStream(join))
				recv(proto.TAck)
			}
			if got := sn.frames.Join.Load(); got != 1 {
				t.Errorf("%d join frames, want 1 (a keepalive re-join is only acknowledged)", got)
			}
			if got := reg.Counter(`cloudfog_supernode_frames_total{sn="1",trigger="join"}`, "").Load(); got != 1 {
				t.Errorf("registry counts %d join frames, want 1", got)
			}
		})
	}
}

// TestTCPRejoinReplacesStream: a second TCP join for a player the supernode
// already streams to takes the stream over. The first connection is closed by
// the supernode — not left with a writer and a socket until its peer hangs up
// — its segments count up without a gap until then, the new stream starts at
// Seq 0, and the supernode holds one session.
func TestTCPRejoinReplacesStream(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Second / 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(), FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	join := proto.MarshalJoinStream(proto.JoinStream{Player: 3, GameID: 1, ViewX: 1, ViewY: 1, ViewR: DefaultViewRadius, LevelCap: 1})
	nextSeq := func(conn net.Conn) (int64, error) {
		typ, payload, err := proto.ReadFrame(conn)
		if err != nil {
			return 0, err
		}
		seg, err := proto.UnmarshalSegment(payload)
		if err != nil || typ != proto.TSegment || seg.Player != 3 {
			t.Fatalf("expected a segment for player 3, got frame type %v, %+v, error %v", typ, seg, err)
		}
		return seg.Seq, nil
	}
	first := dialWith(t, sn.Addr(), proto.TJoinStream, join)
	defer first.Close()
	readAck(t, first)
	if seq, err := nextSeq(first); err != nil || seq != 0 {
		t.Fatalf("first stream opens with seq %d, error %v; want 0", seq, err)
	}
	second := dialWith(t, sn.Addr(), proto.TJoinStream, join)
	defer second.Close()
	readAck(t, second)

	for want := int64(1); ; want++ {
		seq, err := nextSeq(first)
		if err == io.EOF {
			break
		}
		if err != nil || seq != want {
			t.Fatalf("replaced stream: seq %d, error %v; want seq %d or EOF", seq, err, want)
		}
	}
	for want := int64(0); want < 3; want++ {
		if seq, err := nextSeq(second); err != nil || seq != want {
			t.Fatalf("new stream: seq %d, error %v; want %d", seq, err, want)
		}
	}
	if n := sn.SessionCount(); n != 1 {
		t.Fatalf("%d sessions after a re-join, want 1", n)
	}
}
