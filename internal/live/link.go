// Package live runs an actual CloudFog deployment over TCP or UDP: a cloud
// server owning the authoritative virtual world, supernode servers keeping
// replicas and streaming rendered segments, and player clients issuing
// actions and measuring end-to-end response latency. Wide-area propagation
// is injected per link at the sender, so the bytes on the wire are real and
// the timing is wide-area-shaped.
//
// This is the paper's architecture made concrete: player → cloud actions,
// cloud → supernode update deltas, supernode → player video segments.
package live

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
)

// Transport is the sender/receiver contract shared by the TCP stream Link
// and the UDP DatagramLink, and by the in-process pipe pair used for
// recorded/sim-style runs. All implementations inject the configured
// one-way delay at the sender, apply the deterministic loss accumulator,
// and coalesce release-ready frames into batched writes.
type Transport interface {
	// Send copies payload into a pooled frame and enqueues it. The caller
	// keeps ownership of payload (it may be reused immediately). Never
	// blocks on the network; a full queue or the loss process drops the
	// frame and reports false.
	Send(t proto.MsgType, payload []byte) bool
	// AcquireFrame returns a pooled buffer pre-seeded with a frame header
	// for t. Append the payload with proto.Append* and hand it to
	// SendFrame/SendFrameWait — the wire path never copies it again.
	AcquireFrame(t proto.MsgType) []byte
	// SendFrame enqueues a frame built via AcquireFrame. Ownership
	// transfers to the transport: the buffer is recycled after the write
	// (or drop), so the caller must not retain it. Same non-blocking drop
	// semantics as Send.
	SendFrame(frame []byte) bool
	// SendFrameWait is SendFrame with backpressure: a full queue blocks
	// until the writer drains space (or the link dies). Frames claimed by
	// the loss process report true — they were accepted and lost in
	// flight. False means the link is closed or dead.
	SendFrameWait(frame []byte) bool
	// Recv reads the next frame. The returned payload aliases an internal
	// reuse buffer and is valid only until the next Recv call; callers
	// that retain it must copy. Recv is not safe for concurrent use (one
	// reader goroutine per link, as everywhere in this package).
	Recv() (proto.MsgType, []byte, error)
	// Impair sets chaos impairment: extra one-way delay and a fractional
	// deterministic frame-loss rate. Safe to call concurrently with Send.
	Impair(extra time.Duration, lossFrac float64)
	// Err returns the first fatal write error, if any.
	Err() error
	// Close stops the writer (flushing already-queued frames) and closes
	// the connection.
	Close()
}

const (
	// DefaultFlushDeadline bounds how long the coalescing writer holds the
	// first frame of a batch while gathering more. ~2 ms trades a bounded,
	// sub-frame-interval latency cost for an order-of-magnitude reduction
	// in write syscalls at segment-throughput saturation. Frames whose
	// type is urgent (acks, hellos, coordinator control frames) always flush
	// immediately, so failure detectors see no added jitter.
	DefaultFlushDeadline = 2 * time.Millisecond

	defaultMaxBatch = 256  // frames per coalesced writev
	sendQueueCap    = 1024 // matches the pre-coalescing Link

	recvBufferSize = 2 << 10 // a tick's stamps and delta; a control frame many times over

	maxRecycledFrame = 1 << 20          // don't hoard giant one-off frames
	maxFreeList      = sendQueueCap + 8 // bound the frame freelist
)

// LinkOptions configures a link beyond the connection itself. The zero
// value is a healthy uninstrumented link with default coalescing.
type LinkOptions struct {
	// Delay is the injected one-way propagation delay.
	Delay time.Duration
	// Stats, when non-nil, counts frames/bytes each way, sheds, batching,
	// and the sender-side holding delay (nil disables instrumentation with
	// no per-frame cost beyond one nil-check).
	Stats *obs.LinkStats
	// FlushDeadline is the coalescing window: 0 means DefaultFlushDeadline,
	// negative disables coalescing entirely (one write per frame). No
	// deployment sets it; it is an option only because the per-frame mode is
	// the reference path TestLinkPerFrameModeDisablesBatching compares the
	// coalescing writer against.
	FlushDeadline time.Duration
}

// Link wraps a stream connection (TCP, net.Pipe) with sender-side one-way
// delay injection and flush-deadline frame coalescing. Each frame is
// released delay after it was enqueued — ordering is preserved, but
// back-to-back frames are not head-of-line blocked behind each other's
// delay (they overlap in flight, as on a real path). Release-ready frames
// are folded into a single writev-style net.Buffers write.
type Link struct {
	linkCore
}

// DatagramLink is the Transport over an unreliable datagram connection
// (UDP): one frame per datagram, no head-of-line blocking, and transient
// send errors lose only the affected frame — Eq. 14's dropping policy
// happens in the network instead of a queue.
type DatagramLink struct {
	linkCore
}

// linkCore is the shared machinery behind Link and DatagramLink.
type linkCore struct {
	conn          io.ReadWriteCloser
	delay         time.Duration
	flushDeadline time.Duration // <0: per-frame writes (no coalescing)
	dgram         bool
	stats         *obs.LinkStats

	// The send queue is a mu-guarded slice consumed from qhead, not a
	// channel: under saturation the sender's cost is one brief lock and an
	// append, and the writer takes whole batches with one lock round-trip
	// — no per-frame channel handoff or futex wake (cond is only signaled
	// when the writer reported itself idle).
	mu     sync.Mutex
	cond   *sync.Cond // writer waits for work; signaled only when idle
	q      []queued
	qhead  int
	idle   bool
	free   [][]byte // recycled frame buffers (mu-guarded; sync.Pool would box)
	closed bool
	err    error
	wg     sync.WaitGroup

	space chan struct{} // writer → SendFrameWait: queue space freed
	done  chan struct{} // closed when the writer exits

	// Chaos impairment (mu-guarded): extra one-way delay and a fractional
	// loss rate applied at enqueue. Loss is deterministic — an accumulator
	// drops every 1/lossFrac-th frame — so an impaired run is reproducible
	// frame-for-frame given the same send sequence.
	extra    time.Duration
	lossFrac float64
	lossAcc  float64

	// Writer-goroutine-owned scratch (no locking).
	batch      []queued
	bufScratch [][]byte

	// Recv side, owned by the single reader goroutine: the buffer a payload
	// is returned in and, in stream mode, the reader the connection is read
	// through — made by the first Recv, so a link that only sends has none.
	recvBuf []byte
	recvRd  *bufio.Reader
}

type queued struct {
	release time.Time
	frame   []byte // full wire frame: header + payload
	urgent  bool   // flush immediately, never held for coalescing
	dropped bool   // set by the writer on a per-frame datagram send error
}

// NewLink wraps conn with the given one-way send delay. Close the link (not
// the conn) when done.
func NewLink(conn net.Conn, delay time.Duration) *Link {
	return NewLinkOpts(conn, LinkOptions{Delay: delay})
}

// NewLinkOpts wraps a stream conn with full options.
func NewLinkOpts(conn net.Conn, opts LinkOptions) *Link {
	l := &Link{}
	l.init(conn, opts, false)
	return l
}

// NewDatagramLink wraps a datagram conn (each Write is one datagram).
func NewDatagramLink(conn io.ReadWriteCloser, opts LinkOptions) *DatagramLink {
	l := &DatagramLink{}
	l.init(conn, opts, true)
	return l
}

// NewPipeTransport returns two connected in-process transports over a
// net.Pipe, so sim-style and recorded runs exercise the identical wire
// path (framing, coalescing, delay injection) as a live deployment.
func NewPipeTransport(opts LinkOptions) (Transport, Transport) {
	c1, c2 := net.Pipe()
	return NewLinkOpts(c1, opts), NewLinkOpts(c2, opts)
}

var (
	_ Transport = (*Link)(nil)
	_ Transport = (*DatagramLink)(nil)
)

func (l *linkCore) init(conn io.ReadWriteCloser, opts LinkOptions, dgram bool) {
	fd := opts.FlushDeadline
	if fd == 0 {
		fd = DefaultFlushDeadline
	}
	l.conn = conn
	l.delay = opts.Delay
	l.flushDeadline = fd
	l.dgram = dgram
	l.stats = opts.Stats
	l.cond = sync.NewCond(&l.mu)
	l.space = make(chan struct{}, 1)
	l.done = make(chan struct{})
	l.wg.Add(1)
	go l.writer()
}

// urgentType reports whether frames of type t must flush immediately:
// acks, hellos and the coordinator control frames feed handshakes and the
// coordinator's failure detectors, so coalescing jitter on them would show
// up as detector noise.
func urgentType(t proto.MsgType) bool {
	switch t {
	case proto.TAck, proto.THello,
		proto.TRegister, proto.TReport, proto.TTicket, proto.TSync:
		return true
	}
	return false
}

func frameUrgent(frame []byte) bool {
	return len(frame) > 0 && urgentType(proto.MsgType(frame[0]))
}

// writer drains the send queue: it sleeps (one reused timer, not one
// time.Sleep per frame) until the head frame's release time, gathers every
// further queued frame releasing within flushDeadline of it (stopping at
// urgent frames, defaultMaxBatch, or an empty queue — an empty queue flushes
// immediately, so an idle link adds zero latency), and issues one batched
// write. Close lets it flush everything already queued before it exits.
func (l *linkCore) writer() {
	defer l.wg.Done()
	defer close(l.done)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()

	for {
		l.mu.Lock()
		for l.qhead == len(l.q) && !l.closed {
			l.q = l.q[:0]
			l.qhead = 0
			l.idle = true
			l.cond.Wait()
		}
		l.idle = false
		if l.qhead == len(l.q) { // closed and fully drained
			l.mu.Unlock()
			return
		}
		first := l.q[l.qhead]
		l.qhead++
		l.mu.Unlock()

		l.sleepUntil(timer, first.release)
		l.batch = append(l.batch[:0], first)
		if l.flushDeadline >= 0 && !first.urgent {
			deadline := first.release.Add(l.flushDeadline)
			l.mu.Lock()
			for len(l.batch) < defaultMaxBatch && l.qhead < len(l.q) {
				q := l.q[l.qhead]
				if q.release.After(deadline) {
					// Holding the batch open for it would blow the
					// deadline; leave it for the next round.
					break
				}
				l.qhead++
				l.batch = append(l.batch, q)
				if q.urgent {
					break
				}
			}
			if l.qhead >= sendQueueCap {
				// Slide the surviving tail to the front so the queue's
				// storage stays bounded across a long saturated run.
				n := copy(l.q, l.q[l.qhead:])
				l.q = l.q[:n]
				l.qhead = 0
			}
			l.mu.Unlock()
			// Frames gathered inside the deadline may release slightly in
			// the future; honor the newest release before writing.
			newest := first.release
			for i := 1; i < len(l.batch); i++ {
				if l.batch[i].release.After(newest) {
					newest = l.batch[i].release
				}
			}
			l.sleepUntil(timer, newest)
		}

		err := l.writeBatch()
		l.finishBatch(err == nil)
		l.notifySpace()
		if err != nil {
			l.fail(err)
			return
		}
	}
}

func (l *linkCore) sleepUntil(timer *time.Timer, release time.Time) {
	if d := time.Until(release); d > 0 {
		timer.Reset(d)
		<-timer.C
	}
}

// writeBatch pushes the gathered batch onto the wire. Stream mode folds a
// multi-frame batch into one net.Buffers write (writev on TCP); datagram
// mode sends one datagram per frame, marking per-frame transient failures
// as dropped instead of killing the link. A non-nil return is fatal.
func (l *linkCore) writeBatch() error {
	if l.dgram {
		for i := range l.batch {
			q := &l.batch[i]
			if _, err := l.conn.Write(q.frame); err != nil {
				q.dropped = true
				if errors.Is(err, net.ErrClosed) {
					for j := i + 1; j < len(l.batch); j++ {
						l.batch[j].dropped = true
					}
					return err
				}
				// ECONNREFUSED between peer restarts, ENOBUFS, EMSGSIZE:
				// datagram semantics — this frame is lost, the link lives.
			}
		}
		return nil
	}
	var err error
	if len(l.batch) == 1 {
		_, err = l.conn.Write(l.batch[0].frame)
	} else {
		l.bufScratch = l.bufScratch[:0]
		for i := range l.batch {
			l.bufScratch = append(l.bufScratch, l.batch[i].frame)
		}
		// WriteTo consumes its receiver, so hand it a throwaway local
		// header; l.bufScratch keeps its storage for the next batch.
		nb := net.Buffers(l.bufScratch)
		_, err = nb.WriteTo(l.conn)
	}
	if err != nil {
		for i := range l.batch {
			l.batch[i].dropped = true
		}
	}
	return err
}

// finishBatch records stats for the written batch and recycles every frame
// buffer onto the freelist (one lock round-trip for the whole batch).
func (l *linkCore) finishBatch(allSent bool) {
	if l.stats != nil {
		now := time.Now()
		for i := range l.batch {
			q := &l.batch[i]
			if q.dropped {
				l.stats.DroppedFrames.Inc()
				continue
			}
			l.stats.SentFrames.Inc()
			l.stats.SentBytes.Add(int64(len(q.frame) - proto.FrameHeaderLen))
			// The frame was enqueued at release−delay; the observed span
			// is queue wait + injected propagation + the write itself.
			l.stats.SendDelayNs.Observe(int64(now.Sub(q.release) + l.delay))
		}
		if !l.dgram && allSent && len(l.batch) > 1 {
			l.stats.BatchedFrames.Add(int64(len(l.batch)))
			l.stats.BatchWrites.Inc()
		}
	}
	l.mu.Lock()
	for i := range l.batch {
		f := l.batch[i].frame
		if cap(f) > 0 && cap(f) <= maxRecycledFrame && len(l.free) < maxFreeList {
			l.free = append(l.free, f[:0])
		}
		l.batch[i] = queued{}
	}
	l.mu.Unlock()
	l.batch = l.batch[:0]
}

func (l *linkCore) fail(err error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = err
	}
	// Everything still queued will never be written: count it dropped and
	// reclaim the buffers. Future sends observe l.err and report sendDead,
	// so the queue stays empty from here on.
	dropped := len(l.q) - l.qhead
	for i := l.qhead; i < len(l.q); i++ {
		f := l.q[i].frame
		if cap(f) > 0 && cap(f) <= maxRecycledFrame && len(l.free) < maxFreeList {
			l.free = append(l.free, f[:0])
		}
		l.q[i] = queued{}
	}
	l.q = l.q[:0]
	l.qhead = 0
	l.mu.Unlock()
	if l.stats != nil {
		for i := 0; i < dropped; i++ {
			l.stats.DroppedFrames.Inc()
		}
	}
	l.notifySpace()
}

func (l *linkCore) notifySpace() {
	select {
	case l.space <- struct{}{}:
	default:
	}
}

// Impair sets the link's chaos impairment: extra one-way delay and a
// fractional frame loss rate in [0, 1). Zeroes restore the healthy link.
// Safe to call concurrently with Send.
func (l *linkCore) Impair(extra time.Duration, lossFrac float64) {
	if extra < 0 {
		extra = 0
	}
	if lossFrac < 0 {
		lossFrac = 0
	}
	if lossFrac >= 1 {
		lossFrac = 0.999
	}
	l.mu.Lock()
	l.extra = extra
	l.lossFrac = lossFrac
	if lossFrac == 0 {
		l.lossAcc = 0
	}
	l.mu.Unlock()
}

// AcquireFrame returns a recycled (or fresh) buffer pre-seeded with a frame
// header for t. Append the payload in place, then pass to SendFrame.
func (l *linkCore) AcquireFrame(t proto.MsgType) []byte {
	var buf []byte
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		buf = l.free[n-1]
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return proto.BeginFrame(buf, t)
}

type sendResult int

const (
	sendOK       sendResult = iota
	sendFull                // queue congested
	sendLost                // claimed by the deterministic loss process
	sendDead                // closed or failed
	sendRejected            // malformed/oversize frame
)

// trySend patches the frame's length header and enqueues it. Ownership of
// frame transfers on every result except sendFull (the caller may retry).
func (l *linkCore) trySend(frame []byte, urgent bool) sendResult {
	if err := proto.FinishFrame(frame, 0); err != nil {
		return sendRejected
	}
	if l.dgram && len(frame) > proto.MaxDatagram {
		return sendRejected
	}
	// The clock read happens before mu (never hold the lock across a
	// syscall-shaped call) and only when something consumes the stamp: a
	// delay model shifts release by it and stats derive SendDelayNs from
	// it. A bare undelayed link skips it — a zero release is always ready.
	var release time.Time
	if l.delay != 0 || l.stats != nil {
		release = time.Now()
	}
	l.mu.Lock()
	if l.closed || l.err != nil {
		l.mu.Unlock()
		return sendDead
	}
	if l.lossFrac > 0 {
		l.lossAcc += l.lossFrac
		if l.lossAcc >= 1 {
			l.lossAcc--
			l.mu.Unlock()
			return sendLost
		}
	}
	if len(l.q)-l.qhead >= sendQueueCap {
		l.mu.Unlock()
		return sendFull
	}
	if !release.IsZero() {
		release = release.Add(l.delay + l.extra)
	} else if l.extra != 0 {
		// Impair on an uninstrumented link: rare enough that reading the
		// clock under mu beats paying for it on every frame.
		release = time.Now().Add(l.extra)
	}
	l.q = append(l.q, queued{release: release, frame: frame, urgent: urgent})
	if l.idle {
		// Only touch the futex when the writer is actually parked; under
		// saturation the writer is busy and the signal (and its syscall)
		// is skipped entirely.
		l.cond.Signal()
	}
	l.mu.Unlock()
	return sendOK
}

// recycleOne returns an unsent frame buffer to the freelist.
func (l *linkCore) recycleOne(frame []byte) {
	if cap(frame) == 0 || cap(frame) > maxRecycledFrame {
		return
	}
	l.mu.Lock()
	if len(l.free) < maxFreeList {
		l.free = append(l.free, frame[:0])
	}
	l.mu.Unlock()
}

// Send enqueues a frame for delayed transmission, copying payload into a
// pooled buffer (the caller keeps ownership of payload). It never blocks on
// the network; a full queue drops the frame (the link is congested) and
// reports false, as does the impairment loss process when it claims the
// frame.
func (l *linkCore) Send(t proto.MsgType, payload []byte) bool {
	frame := l.AcquireFrame(t)
	frame = append(frame, payload...)
	return l.SendFrame(frame)
}

// SendFrame enqueues a frame built via AcquireFrame + proto.Append*.
// Ownership transfers to the link — the buffer is recycled once written or
// dropped, so the caller must not retain it after this call.
func (l *linkCore) SendFrame(frame []byte) bool {
	switch l.trySend(frame, frameUrgent(frame)) {
	case sendOK:
		return true
	default:
		if l.stats != nil {
			l.stats.DroppedFrames.Inc()
		}
		l.recycleOne(frame)
		return false
	}
}

// SendFrameWait is SendFrame with backpressure: a full queue blocks until
// the writer frees space instead of shedding. Returns false only when the
// link is closed or dead; a frame claimed by the loss process was accepted
// (and lost in flight), so it reports true.
func (l *linkCore) SendFrameWait(frame []byte) bool {
	for {
		switch l.trySend(frame, frameUrgent(frame)) {
		case sendOK:
			return true
		case sendLost:
			if l.stats != nil {
				l.stats.DroppedFrames.Inc()
			}
			l.recycleOne(frame)
			return true
		case sendDead, sendRejected:
			if l.stats != nil {
				l.stats.DroppedFrames.Inc()
			}
			l.recycleOne(frame)
			l.notifySpace() // chain the wakeup to any other blocked sender
			return false
		case sendFull:
			select {
			case <-l.space:
			case <-l.done:
			}
		}
	}
}

// Recv reads the next frame from the connection (receive side is undelayed;
// the sender already injected the one-way latency). The returned payload
// aliases the link's internal reuse buffer and is valid only until the next
// Recv; copy it to retain. One reader goroutine per link.
func (l *linkCore) Recv() (proto.MsgType, []byte, error) {
	var (
		typ     proto.MsgType
		payload []byte
		err     error
	)
	if l.dgram {
		if cap(l.recvBuf) < proto.FrameHeaderLen+proto.MaxDatagram {
			l.recvBuf = make([]byte, proto.FrameHeaderLen+proto.MaxDatagram)
		}
		buf := l.recvBuf[:cap(l.recvBuf)]
		var n int
		n, err = l.conn.Read(buf)
		if err == nil {
			typ, payload, err = proto.ParseDatagram(buf[:n])
		}
	} else {
		if l.recvRd == nil {
			// Header and payload are two read(2) calls against the bare
			// socket; buffered, a peer's coalesced write is taken whole.
			l.recvRd = bufio.NewReaderSize(l.conn, recvBufferSize)
		}
		typ, payload, err = proto.ReadFrameReuse(l.recvRd, &l.recvBuf)
	}
	if err == nil && l.stats != nil {
		l.stats.RecvFrames.Inc()
		l.stats.RecvBytes.Add(int64(len(payload)))
	}
	return typ, payload, err
}

// Err returns the first write error, if any.
func (l *linkCore) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Close stops the writer (already-queued frames are still flushed) and
// closes the connection.
func (l *linkCore) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	l.wg.Wait()
	l.conn.Close()
}

// addrConn adapts one remote address of a shared unconnected UDP socket to
// the connection DatagramLink's writer needs. The listener that owns the
// socket does all reading (demuxing by source address), so Read is
// unsupported, and Close is a no-op — the socket outlives any one peer.
type addrConn struct {
	sock  *net.UDPConn
	raddr *net.UDPAddr
}

func (c *addrConn) Write(p []byte) (int, error) { return c.sock.WriteToUDP(p, c.raddr) }
func (c *addrConn) Read(p []byte) (int, error)  { return 0, io.EOF }
func (c *addrConn) Close() error                { return nil }
