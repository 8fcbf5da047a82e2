package live

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/stream"
	"cloudfog/internal/world"
)

// TestLinkImpairLoss: a 0.5 loss fraction must drop exactly every second
// frame — the accumulator is deterministic, not sampled.
func TestLinkImpairLoss(t *testing.T) {
	r := obs.NewRegistry()
	stats := obs.LinkStatsIn(r, "lossy")
	a, b := net.Pipe()
	link := NewLinkOpts(a, LinkOptions{Stats: stats})
	defer link.Close()
	defer b.Close()

	link.Impair(0, 0.5)
	go func() {
		payload := proto.MarshalAck(proto.Ack{})
		for i := 0; i < 10; i++ {
			link.Send(proto.TAck, payload)
		}
	}()
	for i := 0; i < 5; i++ {
		if _, _, err := proto.ReadFrame(b); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for stats.DroppedFrames.Load() != 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := stats.DroppedFrames.Load(); got != 5 {
		t.Fatalf("dropped frames = %d, want exactly 5 of 10 at lossFrac 0.5", got)
	}
	// Healthy again: the next sends all pass.
	link.Impair(0, 0)
	go func() {
		payload := proto.MarshalAck(proto.Ack{})
		for i := 0; i < 3; i++ {
			link.Send(proto.TAck, payload)
		}
	}()
	for i := 0; i < 3; i++ {
		if _, _, err := proto.ReadFrame(b); err != nil {
			t.Fatalf("post-heal frame %d: %v", i, err)
		}
	}
}

// TestLinkImpairExtraDelay: the impairment's extra latency adds to the
// link's base delay.
func TestLinkImpairExtraDelay(t *testing.T) {
	a, b := net.Pipe()
	link := NewLink(a, 5*time.Millisecond)
	defer link.Close()
	defer b.Close()

	link.Impair(40*time.Millisecond, 0)
	start := time.Now()
	go link.Send(proto.TAck, proto.MarshalAck(proto.Ack{}))
	if _, _, err := proto.ReadFrame(b); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("frame arrived in %v, before base+extra delay", elapsed)
	}
}

// TestDialBackoffRetriesUntilServerUp: the listener appears only after the
// first dial attempts have failed; backoff must carry the client through.
func TestDialBackoffRetriesUntilServerUp(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close() // free the port; nothing listens for the first ~200ms

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(200 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return
		}
		defer ln.Close()
		if conn, err := ln.Accept(); err == nil {
			conn.Close()
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	conn, err := dialBackoff(ctx, addr, 42)
	if err != nil {
		t.Fatalf("dialBackoff never reached the late server: %v", err)
	}
	conn.Close()
	<-done
}

// TestDialBackoffHonorsDeadline: with nothing ever listening, the dial must
// return the context error promptly rather than retrying forever.
func TestDialBackoffHonorsDeadline(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := dialBackoff(ctx, addr, 7); err == nil {
		t.Fatal("dialBackoff succeeded against a dead address")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dialBackoff took %v to give up on a 300ms deadline", elapsed)
	}
}

// TestDialBackoffCancelMidSleep: a context canceled while the dialer is
// asleep between attempts must abort the sleep immediately instead of
// finishing the backoff first.
func TestDialBackoffCancelMidSleep(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	ctx, cancel := context.WithCancel(context.Background())
	const cancelAfter = 1200 * time.Millisecond
	time.AfterFunc(cancelAfter, cancel)
	start := time.Now()
	if _, err := dialBackoff(ctx, addr, 9); err == nil {
		t.Fatal("dialBackoff succeeded against a dead address")
	}
	// By 1.2s the backoff has grown to ~800ms sleeps; without the mid-sleep
	// abort the return would trail the cancel by most of a sleep.
	if elapsed := time.Since(start); elapsed > cancelAfter+300*time.Millisecond {
		t.Fatalf("dialBackoff returned %v after a cancel at %v — slept through the cancel", elapsed, cancelAfter)
	}
}

// TestPlayerCloudFallbackAllBackupsDown kills the serving supernode AND every
// backup: the player must land on the cloud's direct stream, keep receiving
// segments, and its error list must name the dead supernodes it tried.
func TestPlayerCloudFallbackAllBackupsDown(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role:  RoleCloud,
		Addr:  "127.0.0.1:0",
		World: world.DefaultConfig(),
		Tick:  33 * time.Millisecond,
		FPS:   30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	sn1, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := NewSupernode(Config{Role: RoleSupernode, ID: 2, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn1Addr, sn2Addr := sn1.Addr(), sn2.Addr()

	type result struct {
		report PlayerReport
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		report, err := runPlayer(Config{
			Role:        RolePlayer,
			ID:          1,
			GameID:      4,
			CloudAddr:   cloud.Addr(),
			StreamAddr:  sn1Addr,
			BackupAddrs: []string{sn2Addr},
			ActionEvery: 100 * time.Millisecond,
			ViewRadius:  DefaultViewRadius,
		}, 6*time.Second)
		resCh <- result{report, err}
	}()

	time.Sleep(600 * time.Millisecond)
	sn1.Close()
	sn2.Close() // the whole ring is gone — only the cloud is left

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.report.CloudFallback {
		t.Fatalf("player did not fall back to the cloud; errors: %v", res.report.FailoverErrors)
	}
	if res.report.Segments < 30 {
		t.Fatalf("player received only %d segments — the cloud fallback stream never flowed", res.report.Segments)
	}
	mentioned := map[string]bool{}
	for _, e := range res.report.FailoverErrors {
		for _, addr := range []string{sn1Addr, sn2Addr} {
			if strings.Contains(e, addr) {
				mentioned[addr] = true
			}
		}
	}
	if !mentioned[sn1Addr] || !mentioned[sn2Addr] {
		t.Fatalf("FailoverErrors %v does not name both dead supernodes %s and %s",
			res.report.FailoverErrors, sn1Addr, sn2Addr)
	}
}

// TestCloudDirectStreamIsWideArea: the cloud's direct stream is a wide-area
// link like its update links — delayed by DelayFor keyed by the player, and
// counted under cloud_to_p<ID> — not a loopback hop that flatters a player
// who fell back to the cloud.
func TestCloudDirectStreamIsWideArea(t *testing.T) {
	reg := obs.NewRegistry()
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 33 * time.Millisecond, FPS: 30},
		WithObs(reg), WithDelayFor(func(int64) time.Duration { return 80 * time.Millisecond }))
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	report, err := runPlayer(Config{
		Role:        RolePlayer,
		ID:          1,
		GameID:      4,
		CloudAddr:   cloud.Addr(),
		StreamAddr:  cloud.Addr(),
		ActionEvery: 100 * time.Millisecond,
		ViewRadius:  DefaultViewRadius,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if report.MeanResponse < 80*time.Millisecond {
		t.Errorf("mean response %v through an 80ms direct stream", report.MeanResponse)
	}
	if n := reg.Counter(`cloudfog_link_sent_frames_total{link="cloud_to_p1"}`, "").Load(); n == 0 {
		t.Error("the direct stream's link counted no frames")
	}
}

// TestCloudDirectStreamIsASupernodeStream: the cloud serves a direct stream
// as a supernode serves its players. Its first segment leaves with the ack,
// the frame counters count it under sn="cloud", a segment is one frame of the
// game's start level, and a segment carries an action's stamp only once a
// tick has applied the action to the world the frame is rendered from. The
// subscription the cloud's own supernode holds cannot be claimed by a hello.
func TestCloudDirectStreamIsASupernodeStream(t *testing.T) {
	reg := obs.NewRegistry()
	// A tick period the loop never reaches: the test is the only ticker.
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: time.Hour, FPS: 30}, WithObs(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	squatter := dialWith(t, cloud.Addr(), proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RoleSupernode, ID: directSub}))
	defer squatter.Close()
	if typ, _, err := proto.ReadFrame(squatter); err == nil {
		t.Fatalf("a hello under the cloud's own subscription ID was sent frame type %v", typ)
	}

	const player, issued = 5, 42
	g, _ := game.ByID(4)
	stream := dialWith(t, cloud.Addr(), proto.TJoinStream, proto.MarshalJoinStream(proto.JoinStream{
		Player: player, GameID: int32(g.ID), ViewX: 5000, ViewY: 5000, ViewR: DefaultViewRadius, LevelCap: uint8(g.StartLevel),
	}))
	defer stream.Close()
	readAck(t, stream)
	wantSeq := int64(0)
	next := func() proto.Segment {
		t.Helper()
		typ, payload, err := proto.ReadFrame(stream)
		if err != nil || typ != proto.TSegment {
			t.Fatalf("expected a segment, got frame type %v, error %v", typ, err)
		}
		seg, err := proto.UnmarshalSegment(payload)
		if err != nil || seg.Player != player || seg.Seq != wantSeq {
			t.Fatalf("segment %+v, error %v; want player %d, seq %d", seg, err, player, wantSeq)
		}
		if want := frameBytes(30, g.StartLevel); seg.Level != uint8(g.StartLevel) || len(seg.Payload) != want {
			t.Fatalf("segment at level %d of %d bytes, want level %d of %d", seg.Level, len(seg.Payload), g.StartLevel, want)
		}
		wantSeq++
		return seg
	}
	next()
	if got := reg.Counter(`cloudfog_supernode_frames_total{sn="cloud",trigger="join"}`, "").Load(); got != 1 {
		t.Errorf("the cloud counts %d join frames, want 1", got)
	}

	acts := connectActing(t, cloud, player, issued)
	defer acts.Close()
	for range 6 { // deadline frames, ~200 ms
		if seg := next(); seg.ActionIssued == issued {
			t.Fatal("a segment carries the action's stamp before any tick applied the action")
		}
	}
	cloud.tickOnce()
	for seg := next(); seg.ActionIssued != issued; seg = next() {
		if wantSeq > 20 {
			t.Fatal("no segment carries the action's stamp after the tick that applied it")
		}
	}
}

// frameBytes is one segment at level of a stream served at fps: one frame of
// video, sized as a stream's serving state sizes it.
func frameBytes(fps, level int) int {
	cfg := stream.Config{SegmentDuration: time.Second / time.Duration(fps)}
	return cfg.SegmentBytes(game.MustLevelAt(level).Bitrate)
}

// TestCappedJoinIsServedAtTheCap: a join whose LevelCap is below its game's
// level is served at the cap — the level in every segment header and the
// cap's frame size at the server's fps — on a supernode and on the cloud's
// direct stream alike.
func TestCappedJoinIsServedAtTheCap(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 33 * time.Millisecond, FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	const levelCap = 2
	g, _ := game.ByID(4)
	for _, server := range []struct {
		name, addr string
		fps        int
	}{{"supernode", sn.Addr(), 20}, {"cloud", cloud.Addr(), 30}} {
		t.Run(server.name, func(t *testing.T) {
			conn := dialWith(t, server.addr, proto.TJoinStream, proto.MarshalJoinStream(proto.JoinStream{
				Player: 7, GameID: int32(g.ID), ViewR: DefaultViewRadius, LevelCap: levelCap,
			}))
			defer conn.Close()
			readAck(t, conn)
			want := frameBytes(server.fps, levelCap)
			for range 3 {
				typ, payload, err := proto.ReadFrame(conn)
				if err != nil || typ != proto.TSegment {
					t.Fatalf("expected a segment, got frame type %v, error %v", typ, err)
				}
				seg, err := proto.UnmarshalSegment(payload)
				if err != nil || seg.Level != levelCap || len(seg.Payload) != want {
					t.Fatalf("segment at level %d of %d bytes (error %v), want level %d of %d",
						seg.Level, len(seg.Payload), err, levelCap, want)
				}
			}
		})
	}
}

// TestCloudWithoutFPSRefusesDirectJoins: a cloud that serves no direct
// streams answers a direct join with a refusal ack, so a player turned away
// by its ring and then by the cloud reads why in its report, as it does for a
// supernode's refusal.
func TestCloudWithoutFPSRefusesDirectJoins(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 33 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30},
		WithJoinGate(func(proto.JoinStream, bool) uint32 { return proto.AckRefused }))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	rep, err := runPlayer(Config{
		Role: RolePlayer, ID: 1, GameID: 4, CloudAddr: cloud.Addr(), StreamAddr: sn.Addr(),
		ActionEvery: 100 * time.Millisecond, ViewRadius: DefaultViewRadius,
	}, 200*time.Millisecond)
	if err == nil || rep.CloudFallback || len(rep.FailoverErrors) != 2 {
		t.Fatalf("error %v, cloud fallback %v, failover errors %q; want an error, no fallback and two entries",
			err, rep.CloudFallback, rep.FailoverErrors)
	}
	if e := rep.FailoverErrors[1]; !strings.Contains(e, "(cloud)") || !strings.Contains(e, "(refused)") {
		t.Errorf("the cloud's entry is %q, want it named a refusal", e)
	}
}

// TestPlayerReportNamesRefusalAck: a ring whose every member turns the join
// away leaves the player on the cloud, and the report must say why each one
// did — the ack by name, not an integer to look up in the proto package.
func TestPlayerReportNamesRefusalAck(t *testing.T) {
	for _, transport := range []string{TransportTCP, TransportUDP} {
		t.Run(transport, func(t *testing.T) {
			cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 33 * time.Millisecond, FPS: 30})
			if err != nil {
				t.Fatal(err)
			}
			defer cloud.Close()
			acks := []struct {
				code uint32
				name string
			}{{proto.AckRefused, "(refused)"}, {proto.AckExpired, "(expired)"}, {proto.AckSafeMode, "(safe-mode)"}}
			var ring []string
			for i, a := range acks {
				code := a.code
				sn, err := NewSupernode(
					Config{Role: RoleSupernode, ID: int64(i + 1), CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30, Transport: transport},
					WithJoinGate(func(proto.JoinStream, bool) uint32 { return code }))
				if err != nil {
					t.Fatal(err)
				}
				defer sn.Close()
				ring = append(ring, sn.Addr())
			}
			rep, err := runPlayer(Config{
				Role: RolePlayer, ID: 1, GameID: 4, CloudAddr: cloud.Addr(), Transport: transport,
				StreamAddr: ring[0], BackupAddrs: ring[1:],
				ActionEvery: 100 * time.Millisecond, ViewRadius: DefaultViewRadius,
			}, 200*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.CloudFallback || len(rep.FailoverErrors) != len(acks) {
				t.Fatalf("cloud fallback %v with errors %q, want the fallback and one error per ring member",
					rep.CloudFallback, rep.FailoverErrors)
			}
			for i, a := range acks {
				if e := rep.FailoverErrors[i]; !strings.Contains(e, ring[i]) || !strings.Contains(e, a.name) {
					t.Errorf("error %d is %q, want supernode %s and the ack name %s", i, e, ring[i], a.name)
				}
			}
		})
	}
}

// TestPlayerStreamFailover kills the serving supernode mid-run and checks
// the player reattaches to its backup and keeps receiving segments.
func TestPlayerStreamFailover(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role:  RoleCloud,
		Addr:  "127.0.0.1:0",
		World: world.DefaultConfig(),
		Tick:  33 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	sn1, err := NewSupernode(Config{Role: RoleSupernode, ID: 1, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	sn2, err := NewSupernode(Config{Role: RoleSupernode, ID: 2, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn2.Close()

	type result struct {
		report PlayerReport
		err    error
	}
	resCh := make(chan result, 1)
	go func() {
		report, err := runPlayer(Config{
			Role:        RolePlayer,
			ID:          1,
			GameID:      4,
			CloudAddr:   cloud.Addr(),
			StreamAddr:  sn1.Addr(),
			BackupAddrs: []string{sn2.Addr()},
			ActionEvery: 100 * time.Millisecond,
			ViewRadius:  DefaultViewRadius,
		}, 3*time.Second)
		resCh <- result{report, err}
	}()

	time.Sleep(800 * time.Millisecond)
	sn1.Close() // the serving supernode dies mid-run

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.report.Failovers < 1 {
		t.Fatalf("player recorded %d failovers, want >= 1 after its supernode died", res.report.Failovers)
	}
	if res.report.Segments < 30 {
		t.Fatalf("player received only %d segments across the failover", res.report.Segments)
	}
}

// TestPlayerRekeysOnSameAddressTarget pins the renewal half of the retarget
// path: a target naming the address the player's ticket already names swaps
// the ticket inside the join without touching the stream — no reconnect, no
// handoff — so the join a backup sees on the next failover carries it.
func TestPlayerRekeysOnSameAddressTarget(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 33 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	// Each supernode's join gate records the tickets presented to it.
	var mu sync.Mutex
	seen := map[int64][]string{}
	start := func(id int64) *Supernode {
		sn, err := NewSupernode(
			Config{Role: RoleSupernode, ID: id, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30},
			WithJoinGate(func(join proto.JoinStream, known bool) uint32 {
				mu.Lock()
				seen[id] = append(seen[id], string(join.Ticket))
				mu.Unlock()
				return proto.AckOK
			}))
		if err != nil {
			t.Fatal(err)
		}
		return sn
	}
	sn1, sn2 := start(1), start(2)
	defer sn2.Close()

	targets := make(chan StreamTarget, 1)
	p, err := NewPlayer(Config{
		Role: RolePlayer, ID: 1, GameID: 4, CloudAddr: cloud.Addr(),
		StreamAddr: sn1.Addr(), BackupAddrs: []string{sn2.Addr()},
		ActionEvery: 100 * time.Millisecond, ViewRadius: DefaultViewRadius,
	}, WithTicket([]byte("issued")), WithRetarget(targets))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan PlayerReport, 1)
	go func() {
		rep, err := p.Run(1200 * time.Millisecond)
		if err != nil {
			t.Errorf("player run: %v", err)
		}
		done <- rep
	}()

	time.Sleep(300 * time.Millisecond)
	targets <- StreamTarget{Addr: sn1.Addr(), Backups: []string{sn2.Addr()}, Ticket: []byte("renewed")}
	for deadline := time.Now().Add(2 * time.Second); len(targets) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("the streaming player never took the target")
		}
		time.Sleep(5 * time.Millisecond)
	}
	sn1.Close() // the serving supernode dies; the ring takes over

	rep := <-done
	if rep.Handoffs != 0 || rep.Failovers != 1 {
		t.Fatalf("handoffs %d, failovers %d; want a re-key (no handoff) and then one failover", rep.Handoffs, rep.Failovers)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := seen[1]; len(got) != 1 || got[0] != "issued" {
		t.Fatalf("serving supernode saw joins %q, want only the original", got)
	}
	if got := seen[2]; len(got) != 1 || got[0] != "renewed" {
		t.Fatalf("backup saw joins %q, want one carrying the renewed ticket", got)
	}
}
