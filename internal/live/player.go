package live

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/metrics"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// Suggested player Config values for callers with no opinion of their own.
// Validate does NOT fall back to them: an unset cadence or view radius is a
// configuration error, not a request for defaults.
const (
	DefaultActionEvery = 250 * time.Millisecond
	DefaultViewRadius  = 600.0
)

// StreamTarget is a fresher placement pushed mid-session: the serving
// address, its failover ring, the stream transport, and the re-signed ticket
// that authorizes the player there. One naming the address the previous
// ticket named is a lease renewal; any other address is a replacement.
type StreamTarget struct {
	Addr      string
	Backups   []string
	Transport string
	Ticket    []byte
}

// PlayerReport summarizes a live player session.
type PlayerReport struct {
	Segments     int64
	Bytes        int64
	Actions      int64
	MeanResponse time.Duration
	P95Response  time.Duration
	// Failovers counts mid-run stream reattachments to a backup supernode
	// after the serving stream died — each one is a visible interruption.
	Failovers int64
	// Handoffs counts make-before-break retargets (coordinator-driven
	// drains): the player swapped streams without losing a frame.
	Handoffs int64
	// CloudFallback reports that the player ended up streaming directly
	// from the cloud after every supernode in its ring refused.
	CloudFallback bool
	// FailoverErrors records why each refused stream candidate failed, in
	// attempt order ("addr: reason") — the audit trail of a degraded path.
	FailoverErrors []string
	// WithinBudget is the fraction of response samples inside the game's
	// response-latency requirement.
	WithinBudget float64
}

// failoverDialDeadline bounds each dial to a failover candidate: a dead
// supernode should cost the player about a second, not the full patient
// dialDeadline, so a ring of corpses still reaches the cloud fallback
// quickly.
const failoverDialDeadline = time.Second

// Player is a constructed-but-not-yet-run player session; Run drives it for
// a wall-clock duration and returns the report.
type Player struct {
	cfg  Config
	opts Options
}

// NewPlayer builds a player from cfg plus runtime options: Obs registers the
// action-link metrics (cloudfog_link_*{link="p<ID>_to_cloud"}), Ticket and
// Retarget carry a coordinator placement. cfg.Role must be RolePlayer and
// StreamAddr must be resolved (a coordinator-placed player resolves it from
// its ticket first).
func NewPlayer(cfg Config, opts ...Option) (*Player, error) {
	if cfg.Role != RolePlayer {
		return nil, fmt.Errorf("live: NewPlayer on Config.Role %q", cfg.Role)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StreamAddr == "" {
		return nil, fmt.Errorf("live: player Config.StreamAddr is empty")
	}
	return &Player{cfg: cfg, opts: BuildOptions(opts...)}, nil
}

// Run drives the player for the given wall-clock duration: an action
// connection to the cloud (move commands toward wandering targets) and a
// stream subscription at the supernode. Response latency is measured from
// action issue to the arrival of the first segment stamped with it.
func (p *Player) Run(duration time.Duration) (PlayerReport, error) {
	cfg, retarget := p.cfg, p.opts.Retarget
	g, err := game.ByID(cfg.GameID)
	if err != nil {
		return PlayerReport{}, err
	}

	// Action connection.
	actCtx, actCancel := context.WithTimeout(context.Background(), dialDeadline)
	actConn, err := dialBackoff(actCtx, cfg.CloudAddr, cfg.ID)
	actCancel()
	if err != nil {
		return PlayerReport{}, err
	}
	actLink := NewLinkOpts(actConn, p.opts.link(cfg.ActionDelay, fmt.Sprintf("p%d_to_cloud", cfg.ID)))
	defer actLink.Close()
	if !actLink.Send(proto.THello, proto.MarshalHello(proto.Hello{Role: proto.RolePlayerActions, ID: cfg.ID})) {
		return PlayerReport{}, fmt.Errorf("live: hello to cloud failed")
	}
	if typ, _, err := actLink.Recv(); err != nil || typ != proto.TAck {
		return PlayerReport{}, fmt.Errorf("live: cloud rejected player: %v", err)
	}

	// Stream subscription, with backup supernodes as failover targets.
	join := proto.JoinStream{
		Player: cfg.ID,
		GameID: int32(cfg.GameID),
		ViewX:  5000, ViewY: 5000, ViewR: cfg.ViewRadius,
		LevelCap: uint8(g.StartLevel),
		Ticket:   p.opts.Ticket,
	}
	addrs := append([]string{cfg.StreamAddr}, cfg.BackupAddrs...)
	// ticketAddr is the address the ticket inside joinFrame names — not
	// necessarily where the stream is: a failover moves through the ring.
	ticketAddr := cfg.StreamAddr
	// The join frame is encoded once per ticket: the TCP path writes it as
	// the connection's first frame, the datagram path re-sends the identical
	// bytes as its keepalive beacon; a retarget re-encodes it with the
	// replacement ticket.
	joinFrame := proto.AppendFrame(nil, proto.TJoinStream, proto.MarshalJoinStream(join))
	dgramMode := cfg.Transport == TransportUDP
	subscribe := func(addr string, timeout time.Duration, dgram bool, frame []byte) (net.Conn, error) {
		if dgram {
			return subscribeDatagram(addr, frame, timeout)
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		conn, err := dialBackoff(ctx, addr, cfg.ID)
		cancel()
		if err != nil {
			return nil, err
		}
		if _, err := conn.Write(frame); err != nil {
			conn.Close()
			return nil, err
		}
		conn.SetReadDeadline(time.Now().Add(dialDeadline))
		typ, payload, err := proto.ReadFrame(conn)
		if err != nil || typ != proto.TAck {
			conn.Close()
			return nil, fmt.Errorf("live: supernode %s rejected join: %v", addr, err)
		}
		if ack, aerr := proto.UnmarshalAck(payload); aerr == nil && ack.Code != proto.AckOK {
			conn.Close()
			return nil, refusedJoin(addr, ack.Code)
		}
		return conn, nil
	}

	var (
		mu        sync.Mutex
		issuedAt  = map[time.Duration]time.Time{}
		report    PlayerReport
		responses []time.Duration
		lastSeen  time.Duration
	)
	failed := func(cand string, err error) {
		mu.Lock()
		report.FailoverErrors = append(report.FailoverErrors, fmt.Sprintf("%s: %v", cand, err))
		mu.Unlock()
	}

	// walk subscribes to the first ring member, from index from on around the
	// ring, that takes the join, each with the given timeout, and to the
	// cloud's direct stream (always TCP) when none does; every candidate that
	// fails adds its FailoverErrors entry. A non-zero stop ends the walk once
	// passed. With no stream, err is the last ring member's error.
	addrIdx := 0
	walk := func(from int, timeout time.Duration, stop time.Time) (conn net.Conn, dgram bool, err error) {
		for i := 0; i <= len(addrs) && (stop.IsZero() || time.Now().Before(stop)); i++ {
			if i == len(addrs) {
				conn, cerr := subscribe(cfg.CloudAddr, dialDeadline, false, joinFrame)
				if cerr != nil {
					failed(cfg.CloudAddr+" (cloud)", cerr)
					break
				}
				mu.Lock()
				report.CloudFallback = true
				mu.Unlock()
				return conn, false, nil
			}
			k := (from + i) % len(addrs)
			conn, serr := subscribe(addrs[k], timeout, dgramMode, joinFrame)
			if serr == nil {
				addrIdx = k
				return conn, dgramMode, nil
			}
			failed(addrs[k], serr)
			err = serr
		}
		return nil, false, err
	}

	// adopt makes conn the stream the receiver reads: a stream connection
	// reads until just past the session's end, and the keepalive clocks
	// restart.
	var (
		strConn          net.Conn
		strDgram         bool
		deadline         time.Time
		lastRecv, lastKA time.Time
	)
	adopt := func(conn net.Conn, dgram bool) {
		strConn, strDgram = conn, dgram
		if !dgram {
			conn.SetReadDeadline(deadline.Add(2 * time.Second))
		}
		lastRecv = time.Now()
		lastKA = lastRecv
	}

	conn, dgram, err := walk(0, dialDeadline, time.Time{})
	if conn == nil {
		return report, err
	}
	deadline = time.Now().Add(duration)
	adopt(conn, dgram)
	defer func() { strConn.Close() }()

	// Action generator: wander between deterministic targets.
	stopActions := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(cfg.ActionEvery)
		defer ticker.Stop()
		h := uint64(cfg.ID)*2654435761 + 12345
		for {
			select {
			case <-stopActions:
				return
			case <-ticker.C:
				h = h*6364136223846793005 + 1442695040888963407
				target := world.Vec2{
					X: float64(h%10000) / 10000 * 10000,
					Y: float64((h>>20)%10000) / 10000 * 10000,
				}
				stamp := time.Duration(time.Now().UnixNano())
				mu.Lock()
				issuedAt[stamp] = time.Now()
				report.Actions++
				mu.Unlock()
				actLink.Send(proto.TAction, proto.AppendAction(nil, proto.Action{
					Player: cfg.ID,
					Issued: stamp,
					Act:    world.Action{Player: cfg.ID, Kind: world.ActionMove, Target: target},
				}))
			}
		}
	}()

	// Segment receiver. A mid-run stream death fails over through the
	// backup ring with short per-candidate dials, then to the cloud's
	// direct stream; the session only ends early when even the cloud
	// refuses. Datagram streams have no connection to die, so liveness is
	// explicit: short read deadlines drive periodic keepalive re-joins
	// (which also silently re-register after a supernode respawn), and
	// silence past udpStaleAfter is treated as stream death.
	var rbuf []byte
	for time.Now().Before(deadline) {
		if retarget != nil {
			select {
			case tgt, ok := <-retarget:
				if !ok {
					retarget = nil
					break
				}
				njoin := join
				njoin.Ticket = tgt.Ticket
				nframe := proto.AppendFrame(nil, proto.TJoinStream, proto.MarshalJoinStream(njoin))
				if tgt.Addr == ticketAddr {
					// Same placement, renewed lease: re-key the join and keep
					// streaming, wherever the ring has taken the stream, so
					// the next failover presents an unexpired ticket.
					joinFrame = nframe
					break
				}
				// Make-before-break: subscribe to the replacement worker
				// first; only a successful join drops the old stream, so a
				// failed retarget costs nothing.
				newDgram := dgramMode
				if tgt.Transport != "" {
					newDgram = tgt.Transport == TransportUDP
				}
				conn, serr := subscribe(tgt.Addr, failoverDialDeadline, newDgram, nframe)
				if serr != nil {
					failed(tgt.Addr+" (retarget)", serr)
					break
				}
				strConn.Close()
				dgramMode = newDgram
				joinFrame, ticketAddr = nframe, tgt.Addr
				addrs = append([]string{tgt.Addr}, tgt.Backups...)
				addrIdx = 0
				adopt(conn, newDgram)
				mu.Lock()
				report.Handoffs++
				mu.Unlock()
			default:
			}
		}
		if strDgram {
			strConn.SetReadDeadline(time.Now().Add(udpKeepaliveEvery))
		}
		typ, payload, err := readStreamFrame(strConn, strDgram, &rbuf)
		if err != nil {
			if !time.Now().Before(deadline) {
				break
			}
			if strDgram {
				if ne, ok := err.(net.Error); ok && ne.Timeout() && time.Since(lastRecv) < udpStaleAfter {
					// Quiet but not dead yet: beacon a re-join and keep
					// listening.
					strConn.Write(joinFrame)
					lastKA = time.Now()
					continue
				}
			}
			strConn.Close()
			// The ring from the next member on, the dead one last.
			next, nextDgram, _ := walk(addrIdx+1, failoverDialDeadline, deadline)
			if next == nil {
				break
			}
			adopt(next, nextDgram)
			mu.Lock()
			report.Failovers++
			mu.Unlock()
			continue
		}
		lastRecv = time.Now()
		if strDgram && lastRecv.Sub(lastKA) >= udpKeepaliveEvery {
			// Segments flowing doesn't refresh the supernode's liveness
			// record — only joins do — so beacon on a timer regardless.
			strConn.Write(joinFrame)
			lastKA = lastRecv
		}
		if typ != proto.TSegment {
			continue
		}
		// seg.Payload borrows the read buffer (no copy on the receive hot
		// path); only its length is read before the next frame overwrites
		// it.
		var seg proto.Segment
		if proto.UnmarshalSegmentInto(payload, &seg) != nil {
			continue
		}
		mu.Lock()
		report.Segments++
		report.Bytes += int64(len(seg.Payload))
		if seg.ActionIssued > lastSeen {
			lastSeen = seg.ActionIssued
			if t0, ok := issuedAt[seg.ActionIssued]; ok {
				responses = append(responses, time.Since(t0))
				delete(issuedAt, seg.ActionIssued)
			}
		}
		mu.Unlock()
	}

	close(stopActions)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	report.summarize(responses, cfg.UploadAllowance, g.ResponseRequirement())
	return report, nil
}

// summarize fills the report's response figures from the action-to-frame
// samples: their mean, their nearest-rank 95th percentile, and the share that
// meets requirement once the upload allowance is taken off. No samples leave
// all three zero.
func (r *PlayerReport) summarize(responses []time.Duration, allowance, requirement time.Duration) {
	var sample metrics.DurationSample
	var budget metrics.Coverage
	for _, d := range responses {
		sample.Add(d)
		budget.Observe(d-allowance, requirement)
	}
	r.MeanResponse, r.P95Response, r.WithinBudget = sample.Mean(), sample.Percentile(95), budget.Fraction()
}

// readStreamFrame reads one frame from a stream or datagram connection into
// the caller's reuse buffer. The returned payload aliases *buf and is valid
// only until the next call.
func readStreamFrame(conn net.Conn, dgram bool, buf *[]byte) (proto.MsgType, []byte, error) {
	if !dgram {
		return proto.ReadFrameReuse(conn, buf)
	}
	if cap(*buf) < proto.FrameHeaderLen+proto.MaxDatagram {
		*buf = make([]byte, proto.FrameHeaderLen+proto.MaxDatagram)
	}
	b := (*buf)[:cap(*buf)]
	n, err := conn.Read(b)
	if err != nil {
		return 0, nil, err
	}
	return proto.ParseDatagram(b[:n])
}

// refusedJoin is the error for a join answered with a non-OK ack. It names
// the ack, so a session report that ends on the cloud says why each supernode
// turned the player away: "refused" (no ticket, or one this worker cannot
// verify — check ticket_key on both sides), "expired", "safe-mode".
func refusedJoin(addr string, code uint32) error {
	var name string
	switch code {
	case proto.AckRefused:
		name = "refused"
	case proto.AckExpired:
		name = "expired"
	case proto.AckSafeMode:
		name = "safe-mode"
	default:
		name = fmt.Sprintf("code %d", code)
	}
	return fmt.Errorf("live: supernode %s refused join (%s)", addr, name)
}

// subscribeDatagram joins a datagram supernode stream: it sends the join
// frame and retries on short read deadlines until the supernode acks (joins
// and acks are datagrams — either can be lost). A non-zero ack code is a
// rejection; anything else keeps retrying until timeout.
func subscribeDatagram(addr string, joinFrame []byte, timeout time.Duration) (net.Conn, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	buf := make([]byte, proto.FrameHeaderLen+proto.MaxDatagram)
	for time.Now().Before(deadline) {
		if _, err := conn.Write(joinFrame); err != nil {
			// A dead target surfaces as ECONNREFUSED on a connected UDP
			// socket; keep beaconing until the deadline in case it comes
			// back (supernode respawn during failover).
			time.Sleep(50 * time.Millisecond)
			continue
		}
		conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		n, rerr := conn.Read(buf)
		if rerr != nil {
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				continue // join or ack datagram lost: re-send
			}
			time.Sleep(50 * time.Millisecond)
			continue
		}
		typ, payload, perr := proto.ParseDatagram(buf[:n])
		if perr != nil {
			continue
		}
		switch typ {
		case proto.TAck:
			ack, aerr := proto.UnmarshalAck(payload)
			if aerr != nil {
				continue
			}
			if ack.Code != proto.AckOK {
				conn.Close()
				return nil, refusedJoin(addr, ack.Code)
			}
			conn.SetReadDeadline(time.Time{})
			return conn, nil
		case proto.TSegment:
			// A segment beat the ack here: the subscription is live.
			conn.SetReadDeadline(time.Time{})
			return conn, nil
		}
	}
	conn.Close()
	return nil, fmt.Errorf("live: supernode %s: datagram join timed out after %v", addr, timeout)
}
