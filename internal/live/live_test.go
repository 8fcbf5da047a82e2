package live

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

func TestLinkDeliversInOrderWithDelay(t *testing.T) {
	a, b := net.Pipe()
	link := NewLink(a, 20*time.Millisecond)
	defer link.Close()
	defer b.Close()

	start := time.Now()
	go func() {
		for i := 0; i < 3; i++ {
			link.Send(proto.TAck, proto.MarshalAck(proto.Ack{Code: uint32(i)}))
		}
	}()
	for i := 0; i < 3; i++ {
		typ, payload, err := proto.ReadFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := proto.UnmarshalAck(payload)
		if err != nil || typ != proto.TAck || ack.Code != uint32(i) {
			t.Fatalf("frame %d: %v %+v %v", i, typ, ack, err)
		}
	}
	elapsed := time.Since(start)
	if elapsed < 20*time.Millisecond {
		t.Fatalf("frames arrived in %v, before the injected delay", elapsed)
	}
	// Back-to-back frames overlap in flight: 3 frames should take ~one
	// delay, not three.
	if elapsed > 55*time.Millisecond {
		t.Fatalf("frames head-of-line blocked: %v", elapsed)
	}
}

func TestLinkSendAfterCloseFails(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	link := NewLink(a, 0)
	link.Close()
	if link.Send(proto.TAck, nil) {
		t.Fatal("send after close succeeded")
	}
}

func TestLinkPeerGoneSetsErr(t *testing.T) {
	a, b := net.Pipe()
	link := NewLink(a, 0)
	defer link.Close()
	b.Close()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		link.Send(proto.TAck, nil)
		if link.Err() != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("write error never surfaced after peer closed")
}

// TestEndToEndPipeline runs the complete live deployment: cloud, one
// supernode, two players, injected delays — and checks that segments flow,
// the replica tracks the world, and measured response latencies sit above
// the injected path delay.
func TestEndToEndPipeline(t *testing.T) {
	const updateDelay = 10 * time.Millisecond
	reg := obs.NewRegistry()
	cloud, err := NewCloud(Config{
		Role:  RoleCloud,
		Addr:  "127.0.0.1:0",
		World: world.DefaultConfig(),
		Tick:  33 * time.Millisecond,
	}, WithObs(reg), WithDelayFor(func(int64) time.Duration { return updateDelay }))
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	const streamDelay = 8 * time.Millisecond
	sn, err := NewSupernode(Config{
		Role:      RoleSupernode,
		ID:        1_000_000,
		CloudAddr: cloud.Addr(),
		Addr:      "127.0.0.1:0",
		FPS:       30,
	}, WithDelayFor(func(int64) time.Duration { return streamDelay }))
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	// Seed some world objects so views have content.
	cloud.World(func(w *world.World) {
		for i := 0; i < 20; i++ {
			w.SpawnObject(world.Vec2{X: float64(i * 400), Y: float64(i * 350)})
		}
	})

	var wg sync.WaitGroup
	reports := make([]PlayerReport, 2)
	errs := make([]error, 2)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], errs[i] = runPlayer(Config{
				Role:        RolePlayer,
				ID:          int64(i + 1),
				GameID:      4,
				CloudAddr:   cloud.Addr(),
				StreamAddr:  sn.Addr(),
				ActionDelay: 6 * time.Millisecond,
				ActionEvery: 100 * time.Millisecond,
				ViewRadius:  DefaultViewRadius,
			}, 2*time.Second)
		}(i)
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
	for i, r := range reports {
		// ~30 fps for 2 s; allow generous slack for CI scheduling.
		if r.Segments < 30 || r.Segments > 75 {
			t.Fatalf("player %d received %d segments, want ~60", i, r.Segments)
		}
		if r.Bytes <= 0 {
			t.Fatalf("player %d received no payload bytes", i)
		}
		if r.Actions < 10 {
			t.Fatalf("player %d issued only %d actions", i, r.Actions)
		}
		if r.MeanResponse == 0 {
			t.Fatalf("player %d measured no response latencies", i)
		}
		// The response path is action(6ms) + tick wait + update(10ms) +
		// render wait + stream(8ms): at least the injected 24 ms.
		if r.MeanResponse < 24*time.Millisecond {
			t.Fatalf("player %d mean response %v below injected path delay", i, r.MeanResponse)
		}
		if r.MeanResponse > 500*time.Millisecond {
			t.Fatalf("player %d mean response %v implausibly high", i, r.MeanResponse)
		}
	}

	// The supernode's replica tracked the live world.
	sn.mu.Lock()
	v := sn.replica.Version()
	sn.mu.Unlock()
	if v == 0 {
		t.Fatal("replica never advanced")
	}
	// The sender-side ledger the demo reads: what the cloud wrote on the
	// supernode's update link.
	bytes := reg.Counter(`cloudfog_link_sent_bytes_total{link="cloud_to_sn1000000"}`, "").Load()
	if bytes == 0 {
		t.Fatal("no update traffic recorded")
	}
	// Update traffic must be far below the video traffic — the paper's
	// central bandwidth claim.
	videoBytes := reports[0].Bytes + reports[1].Bytes
	if bytes >= videoBytes {
		t.Fatalf("update traffic %dB not below video traffic %dB", bytes, videoBytes)
	}
}

func TestCloudRejectsBadHello(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", World: world.DefaultConfig(), Tick: 33 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()

	conn, err := net.Dial("tcp", cloud.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Not a hello: the cloud must drop the connection.
	proto.WriteFrame(conn, proto.TAck, proto.MarshalAck(proto.Ack{}))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("cloud kept a connection that never said hello")
	}
}

func TestSupernodeRejectsBadJoin(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", World: world.DefaultConfig(), Tick: 33 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 5, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	conn, err := net.Dial("tcp", sn.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Unknown game ID: join must be refused with an explicit ack code and
	// the connection closed.
	proto.WriteFrame(conn, proto.TJoinStream, proto.MarshalJoinStream(proto.JoinStream{Player: 1, GameID: 99}))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := proto.ReadFrame(conn)
	if err != nil || typ != proto.TAck {
		t.Fatalf("expected refusal ack, got %v %v", typ, err)
	}
	ack, err := proto.UnmarshalAck(payload)
	if err != nil || ack.Code != proto.AckRefused {
		t.Fatalf("expected AckRefused, got %+v %v", ack, err)
	}
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("supernode kept a join with an unknown game")
	}
}

func TestCloudCloseIsClean(t *testing.T) {
	cloud, err := NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", World: world.DefaultConfig(), Tick: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sn, err := NewSupernode(Config{Role: RoleSupernode, ID: 9, CloudAddr: cloud.Addr(), Addr: "127.0.0.1:0", FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	cloud.Close()
	cloud.Close() // idempotent
	sn.Close()
	sn.Close()

	// A cloud serving a direct stream closes it and returns, although the
	// player still holds its end open.
	cloud, err = NewCloud(Config{Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 10 * time.Millisecond, FPS: 30})
	if err != nil {
		t.Fatal(err)
	}
	stream := dialWith(t, cloud.Addr(), proto.TJoinStream, proto.MarshalJoinStream(proto.JoinStream{Player: 1, GameID: 1, ViewR: DefaultViewRadius}))
	defer stream.Close()
	readAck(t, stream)
	closed := make(chan struct{})
	go func() {
		cloud.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close has not returned after two seconds with a direct stream open")
	}
	if _, err := io.Copy(io.Discard, stream); err != nil {
		t.Fatalf("the direct stream ended with %v, want EOF", err)
	}
}

// TestReportSummarizesResponses: the report's mean, 95th percentile
// (nearest rank) and in-budget share of the response samples, in whatever
// order they arrived.
func TestReportSummarizesResponses(t *testing.T) {
	var oneToTwenty []time.Duration
	for i := 20; i >= 1; i-- {
		oneToTwenty = append(oneToTwenty, time.Duration(i)*time.Millisecond)
	}
	ms := time.Millisecond
	for _, tc := range []struct {
		name      string
		samples   []time.Duration
		allowance time.Duration
		mean, p95 time.Duration
		within    float64
	}{
		{"none", nil, 0, 0, 0, 0},
		{"one", []time.Duration{5 * ms}, 0, 5 * ms, 5 * ms, 1},
		{"1..20 ms", oneToTwenty, 0, 10*ms + ms/2, 19 * ms, 0.5},
		{"1..20 ms less 5 ms of upload", oneToTwenty, 5 * ms, 10*ms + ms/2, 19 * ms, 0.75},
	} {
		var r PlayerReport
		r.summarize(tc.samples, tc.allowance, 10*ms)
		if r.MeanResponse != tc.mean || r.P95Response != tc.p95 || r.WithinBudget != tc.within {
			t.Errorf("%s: mean %v, p95 %v, within %v; want %v, %v, %v", tc.name,
				r.MeanResponse, r.P95Response, r.WithinBudget, tc.mean, tc.p95, tc.within)
		}
	}
}

// runPlayer builds and runs one player session.
func runPlayer(cfg Config, duration time.Duration) (PlayerReport, error) {
	p, err := NewPlayer(cfg)
	if err != nil {
		return PlayerReport{}, err
	}
	return p.Run(duration)
}

// TestConfigValidation pins that each incomplete role config is rejected
// with an error naming the offending field.
func TestConfigValidation(t *testing.T) {
	player := Config{Role: RolePlayer, CloudAddr: "x", StreamAddr: "y", GameID: 1,
		ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}
	if err := player.Validate(); err != nil {
		t.Errorf("complete player config rejected: %v", err)
	}
	with := func(edit func(*Config)) Config {
		c := player
		edit(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"cloud empty addr", Config{Role: RoleCloud, Tick: time.Second}, "Addr is empty"},
		{"cloud zero tick", Config{Role: RoleCloud, Addr: "127.0.0.1:0"}, "Tick"},
		{"cloud negative fps", Config{Role: RoleCloud, Addr: "x", Tick: time.Second, FPS: -1}, "FPS"},
		{"sn empty cloud addr", Config{Role: RoleSupernode, Addr: "127.0.0.1:0", FPS: 30}, "CloudAddr is empty"},
		{"sn empty addr", Config{Role: RoleSupernode, CloudAddr: "x", FPS: 30}, "Addr is empty"},
		{"sn zero fps", Config{Role: RoleSupernode, CloudAddr: "x", Addr: "127.0.0.1:0"}, "FPS"},
		{"cloud with a detector", Config{Role: RoleCloud, Addr: "x", Tick: time.Second,
			Detector: health.DetectorConfig{Mode: health.ModePhi}}, "the cloud runs no failure detector"},
		{"coordinator over udp", Config{Role: RoleCoordinator, Addr: "x", Transport: TransportUDP}, "control links are TCP"},
		{"sn bad transport", Config{Role: RoleSupernode, CloudAddr: "x", Addr: "y", FPS: 30, Transport: "sctp"}, "Transport"},
		{"player empty cloud addr", with(func(c *Config) { c.CloudAddr = "" }), "CloudAddr is empty"},
		{"player empty stream addr", with(func(c *Config) { c.StreamAddr = "" }), "StreamAddr"},
		{"player negative action delay", with(func(c *Config) { c.ActionDelay = -time.Second }), "ActionDelay"},
		{"player zero cadence", with(func(c *Config) { c.ActionEvery = 0 }), "ActionEvery"},
		{"player zero radius", with(func(c *Config) { c.ViewRadius = 0 }), "ViewRadius"},
		{"player bad game", with(func(c *Config) { c.GameID = 99 }), "GameID"},
		{"player bad transport", with(func(c *Config) { c.Transport = "sctp" }), "Transport"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestStartRejectsInvalidConfig(t *testing.T) {
	if _, err := NewCloud(Config{Role: RoleCloud}); err == nil {
		t.Error("NewCloud accepted an empty config")
	}
	if _, err := NewSupernode(Config{Role: RoleSupernode}); err == nil {
		t.Error("NewSupernode accepted an empty config")
	}
	if _, err := NewPlayer(Config{Role: RolePlayer}); err == nil {
		t.Error("NewPlayer accepted an empty config")
	}
	// A coordinator-placed config validates without a StreamAddr, but a
	// player cannot run until its ticket has resolved one.
	placed := Config{Role: RolePlayer, GameID: 1, CloudAddr: "x", CoordAddr: "y",
		ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}
	if _, err := NewPlayer(placed); err == nil || !strings.Contains(err.Error(), "StreamAddr is empty") {
		t.Errorf("NewPlayer on an unresolved StreamAddr: %v", err)
	}
	for _, role := range []RoleKind{RoleSupernode, RolePlayer, RoleCoordinator} {
		if _, err := NewCloud(Config{Role: role}); err == nil {
			t.Errorf("NewCloud accepted Role %q", role)
		}
	}
}

// TestLinkMidStreamDisconnect drives a link through an active transfer,
// kills the peer mid-stream, and checks the full error path: the write
// error surfaces via Err, every later Send reports false, and Close still
// returns cleanly.
func TestLinkMidStreamDisconnect(t *testing.T) {
	r := obs.NewRegistry()
	stats := obs.LinkStatsIn(r, "test")
	a, b := net.Pipe()
	link := NewLinkOpts(a, LinkOptions{Stats: stats})
	defer link.Close()

	// Receive a few frames, then vanish mid-stream.
	received := make(chan struct{})
	go func() {
		for i := 0; i < 3; i++ {
			if _, _, err := proto.ReadFrame(b); err != nil {
				break
			}
		}
		close(received)
		b.Close()
	}()

	payload := proto.MarshalAck(proto.Ack{Code: 7})
	for i := 0; i < 3; i++ {
		if !link.Send(proto.TAck, payload) {
			t.Fatalf("send %d failed before disconnect", i)
		}
	}
	<-received

	// Keep sending into the dead peer until the writer surfaces the error.
	deadline := time.Now().Add(2 * time.Second)
	for link.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("write error never surfaced after mid-stream disconnect")
		}
		link.Send(proto.TAck, payload)
		time.Sleep(2 * time.Millisecond)
	}
	if ok := link.Send(proto.TAck, payload); ok {
		t.Fatal("send succeeded after the link erred")
	}
	if got := stats.SentFrames.Load(); got < 3 {
		t.Fatalf("sent frames = %d, want >= 3", got)
	}
	if stats.DroppedFrames.Load() == 0 {
		t.Fatal("no dropped frames counted after disconnect")
	}
}

// TestLinkRecvAfterPeerClose checks the receive-side error path and that
// successful receives are counted.
func TestLinkRecvAfterPeerClose(t *testing.T) {
	r := obs.NewRegistry()
	stats := obs.LinkStatsIn(r, "recv")
	a, b := net.Pipe()
	link := NewLinkOpts(b, LinkOptions{Stats: stats})
	defer link.Close()

	go func() {
		proto.WriteFrame(a, proto.TAck, proto.MarshalAck(proto.Ack{}))
		a.Close()
	}()
	if _, _, err := link.Recv(); err != nil {
		t.Fatalf("first recv: %v", err)
	}
	if _, _, err := link.Recv(); err == nil {
		t.Fatal("recv after peer close returned no error")
	}
	if got := stats.RecvFrames.Load(); got != 1 {
		t.Fatalf("recv frames = %d, want 1", got)
	}
}

// TestLinkStatsCountTraffic checks the happy-path accounting: frames and
// bytes both ways plus a send-delay observation per frame.
func TestLinkStatsCountTraffic(t *testing.T) {
	r := obs.NewRegistry()
	sendStats := obs.LinkStatsIn(r, "s")
	recvStats := obs.LinkStatsIn(r, "r")
	a, b := net.Pipe()
	sender := NewLinkOpts(a, LinkOptions{Delay: 3 * time.Millisecond, Stats: sendStats})
	receiver := NewLinkOpts(b, LinkOptions{Stats: recvStats})
	defer sender.Close()
	defer receiver.Close()

	payload := proto.MarshalAck(proto.Ack{Code: 1})
	const n = 5
	for i := 0; i < n; i++ {
		if !sender.Send(proto.TAck, payload) {
			t.Fatalf("send %d failed", i)
		}
	}
	for i := 0; i < n; i++ {
		if _, _, err := receiver.Recv(); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	// The writer bumps its counters after WriteFrame returns, which with
	// net.Pipe races the final Recv; give it a moment to settle.
	deadline := time.Now().Add(2 * time.Second)
	for sendStats.SentFrames.Load() != n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := sendStats.SentFrames.Load(); got != n {
		t.Fatalf("sent frames = %d, want %d", got, n)
	}
	wantBytes := int64(n * len(payload))
	if got := sendStats.SentBytes.Load(); got != wantBytes {
		t.Fatalf("sent bytes = %d, want %d", got, wantBytes)
	}
	if got := recvStats.RecvFrames.Load(); got != n {
		t.Fatalf("recv frames = %d, want %d", got, n)
	}
	if got := recvStats.RecvBytes.Load(); got != wantBytes {
		t.Fatalf("recv bytes = %d, want %d", got, wantBytes)
	}
	if got := sendStats.SendDelayNs.Count(); got != n {
		t.Fatalf("send delay observations = %d, want %d", got, n)
	}
	// Every frame was held at least the injected 3 ms.
	if min := sendStats.SendDelayNs.Sum() / n; min < (3 * time.Millisecond).Nanoseconds() {
		t.Fatalf("mean send delay %dns below the injected 3ms", min)
	}
}
