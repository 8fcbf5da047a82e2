// Package proto defines the CloudFog wire protocol: the binary messages
// exchanged between players, the cloud, and supernodes in a live
// deployment. Framing is [1-byte type][4-byte big-endian length][payload];
// payloads are fixed-layout big-endian fields, hand-encoded so the format
// is stable and inspectable.
//
// The message set mirrors the paper's data flows (§III-A):
//
//	player    → cloud      Action        (the player's input, timestamped)
//	cloud     → supernode  Delta         (game-state update information)
//	supernode → player     Segment       (one encoded video segment)
//	player    → supernode  JoinStream    (subscribe a view)
//	any       → any        Ack           (acknowledgements / errors)
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"cloudfog/internal/world"
)

// MsgType tags a frame.
type MsgType uint8

const (
	// TAction is a player action sent to the cloud.
	TAction MsgType = iota + 1
	// TDelta is a cloud→supernode game-state update.
	TDelta
	// TSegment is a supernode→player video segment.
	TSegment
	// TJoinStream subscribes a player's view at a supernode.
	TJoinStream
	// TAck acknowledges a request (code 0 = OK).
	TAck
	// THello identifies a connecting peer's role.
	THello
	// Wire value 7 is reserved (a retired supernode→cloud liveness beacon);
	// the blank keeps TRegister…TSync at their wire values.
	_
	// TRegister announces a supernode worker to the coordinator: identity,
	// player-facing address, position, and capacity.
	TRegister
	// TReport is a worker's periodic capacity/occupancy report to the
	// coordinator; the coordinator's failure detector times the gaps.
	TReport
	// TPlace asks the coordinator to place a joining player.
	TPlace
	// TTicket is the coordinator's signed placement answer: the serving
	// worker's address plus the backup ring. On the player→coordinator
	// direction the same frame type carries a Renew payload (a lease
	// renewal request).
	TTicket
	// TSync is the coordinator's downstream beacon to workers: its clock
	// and the lease TTL. Workers time the gaps to detect coordinator
	// silence and use the clock to bound ticket-expiry skew.
	TSync
)

// MaxFrame bounds frame payloads (16 MiB) against corrupt length headers.
const MaxFrame = 16 << 20

// FrameHeaderLen is the fixed frame header size: 1 type byte plus a 4-byte
// big-endian payload length.
const FrameHeaderLen = 5

// MaxDatagram is the largest whole frame (header included) that fits in one
// UDP datagram (the IPv4 maximum UDP payload).
const MaxDatagram = 65507

// WriteFrame writes one framed message.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [FrameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// AppendFrame appends one complete frame (header plus payload) to dst and
// returns the extended slice. A sequence of AppendFrame calls into one
// buffer produces the exact byte stream a sequence of WriteFrame calls
// would, so coalesced batches decode with the ordinary ReadFrame loop.
func AppendFrame(dst []byte, t MsgType, payload []byte) []byte {
	dst = append(dst, byte(t))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// BeginFrame appends a frame header for t with a zero payload length to dst.
// Append the payload with the Append* marshalers, then patch the length with
// FinishFrame. The header starts at the returned slice's len(dst) offset.
func BeginFrame(dst []byte, t MsgType) []byte {
	return append(dst, byte(t), 0, 0, 0, 0)
}

// FinishFrame patches the payload length of the frame whose header starts
// at hdrOff in b, after the payload has been appended in place. It reports
// an error (leaving b unusable for the wire) when the frame is malformed or
// the payload exceeds MaxFrame.
func FinishFrame(b []byte, hdrOff int) error {
	if hdrOff < 0 || hdrOff+FrameHeaderLen > len(b) {
		return fmt.Errorf("proto: FinishFrame header offset %d out of range", hdrOff)
	}
	n := len(b) - hdrOff - FrameHeaderLen
	if n > MaxFrame {
		return fmt.Errorf("proto: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[hdrOff+1:], uint32(n))
	return nil
}

// ReadFrame reads one framed message. The returned payload is freshly
// allocated and owned by the caller; hot paths should prefer ReadFrameReuse.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("proto: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[0]), payload, nil
}

// ReadFrameReuse is ReadFrame reading the payload into *buf (grown as
// needed) instead of allocating. The returned payload aliases *buf and is
// valid only until the next call that reuses the same buffer; decode or
// copy it out before reading again.
func ReadFrameReuse(r io.Reader, buf *[]byte) (MsgType, []byte, error) {
	var hdr [FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[1:]))
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("proto: frame length %d exceeds limit", n)
	}
	b := *buf
	if cap(b) < n {
		b = make([]byte, n)
		*buf = b
	}
	b = b[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, err
	}
	return MsgType(hdr[0]), b, nil
}

// ParseDatagram interprets one datagram as exactly one frame (header plus
// payload — the datagram transport's unit). The returned payload aliases p.
func ParseDatagram(p []byte) (MsgType, []byte, error) {
	if len(p) < FrameHeaderLen {
		return 0, nil, fmt.Errorf("proto: datagram of %d bytes is shorter than a frame header", len(p))
	}
	n := int(binary.BigEndian.Uint32(p[1:]))
	if n != len(p)-FrameHeaderLen {
		return 0, nil, fmt.Errorf("proto: datagram payload length %d does not match frame length %d",
			len(p)-FrameHeaderLen, n)
	}
	return MsgType(p[0]), p[FrameHeaderLen:], nil
}

// Append-side primitives: each writes one big-endian field and returns the
// extended slice, so the Append* marshalers compose with zero allocations
// into caller-supplied (typically pooled) storage.

func appendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}

// buffer is a simple consume-side byte cursor.
type buffer struct {
	b   []byte
	off int
	err error
}

func (b *buffer) need(n int) bool {
	if b.err != nil {
		return false
	}
	if b.off+n > len(b.b) {
		b.err = io.ErrUnexpectedEOF
		return false
	}
	return true
}

func (b *buffer) ru8() uint8 {
	if !b.need(1) {
		return 0
	}
	v := b.b[b.off]
	b.off++
	return v
}

func (b *buffer) ru32() uint32 {
	if !b.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(b.b[b.off:])
	b.off += 4
	return v
}

func (b *buffer) ru64() uint64 {
	if !b.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(b.b[b.off:])
	b.off += 8
	return v
}

func (b *buffer) ri64() int64   { return int64(b.ru64()) }
func (b *buffer) rf64() float64 { return math.Float64frombits(b.ru64()) }

func (b *buffer) finish() error {
	if b.err != nil {
		return b.err
	}
	if b.off != len(b.b) {
		return fmt.Errorf("proto: %d trailing bytes", len(b.b)-b.off)
	}
	return nil
}

// Action is a timestamped player input.
type Action struct {
	Player int64
	// Issued is the client's send time (virtual or wall nanoseconds);
	// it rides through the pipeline so end-to-end response latency can
	// be measured at delivery.
	Issued time.Duration
	Act    world.Action
}

// AppendAction marshals an action message into dst and returns the extended
// slice.
func AppendAction(dst []byte, a Action) []byte {
	dst = appendI64(dst, a.Player)
	dst = appendI64(dst, int64(a.Issued))
	dst = appendU8(dst, uint8(a.Act.Kind))
	dst = appendI64(dst, a.Act.Player)
	dst = appendF64(dst, a.Act.Target.X)
	dst = appendF64(dst, a.Act.Target.Y)
	dst = appendI64(dst, int64(a.Act.Victim))
	return dst
}

// UnmarshalAction decodes an action message.
func UnmarshalAction(p []byte) (Action, error) {
	b := buffer{b: p}
	var a Action
	a.Player = b.ri64()
	a.Issued = time.Duration(b.ri64())
	a.Act.Kind = world.ActionKind(b.ru8())
	a.Act.Player = b.ri64()
	a.Act.Target.X = b.rf64()
	a.Act.Target.Y = b.rf64()
	a.Act.Victim = world.EntityID(b.ri64())
	return a, b.finish()
}

// AppendDelta marshals a world delta (the cloud's update information) into
// dst and returns the extended slice.
func AppendDelta(dst []byte, d world.Delta) []byte {
	dst = appendU64(dst, d.FromVersion)
	dst = appendU64(dst, d.ToVersion)
	full := uint8(0)
	if d.Full {
		full = 1
	}
	dst = appendU8(dst, full)
	dst = appendU32(dst, uint32(len(d.Updated)))
	dst = appendU32(dst, uint32(len(d.Removed)))
	for _, e := range d.Updated {
		dst = appendI64(dst, int64(e.ID))
		dst = appendU8(dst, uint8(e.Kind))
		dst = appendI64(dst, e.Owner)
		dst = appendF64(dst, e.Pos.X)
		dst = appendF64(dst, e.Pos.Y)
		dst = appendF64(dst, e.Vel.X)
		dst = appendF64(dst, e.Vel.Y)
		dst = appendU32(dst, uint32(e.HP))
		dst = appendU64(dst, e.Version)
	}
	for _, id := range d.Removed {
		dst = appendI64(dst, int64(id))
	}
	return dst
}

// UnmarshalDelta decodes a world delta.
func UnmarshalDelta(p []byte) (world.Delta, error) {
	b := buffer{b: p}
	var d world.Delta
	d.FromVersion = b.ru64()
	d.ToVersion = b.ru64()
	d.Full = b.ru8() == 1
	nUp := int(b.ru32())
	nRm := int(b.ru32())
	if b.err != nil {
		return d, b.err
	}
	const perEntity = 8 + 1 + 8 + 32 + 4 + 8
	if nUp*perEntity+nRm*8 > len(p) {
		return d, fmt.Errorf("proto: delta counts exceed payload")
	}
	d.Updated = make([]world.Entity, 0, nUp)
	for i := 0; i < nUp; i++ {
		var e world.Entity
		e.ID = world.EntityID(b.ri64())
		e.Kind = world.Kind(b.ru8())
		e.Owner = b.ri64()
		e.Pos.X = b.rf64()
		e.Pos.Y = b.rf64()
		e.Vel.X = b.rf64()
		e.Vel.Y = b.rf64()
		e.HP = int32(b.ru32())
		e.Version = b.ru64()
		d.Updated = append(d.Updated, e)
	}
	d.Removed = make([]world.EntityID, 0, nRm)
	for i := 0; i < nRm; i++ {
		d.Removed = append(d.Removed, world.EntityID(b.ri64()))
	}
	return d, b.finish()
}

// Segment is one video segment header plus its (opaque) payload bytes.
type Segment struct {
	Player int64
	Seq    int64
	Level  uint8
	// ActionIssued echoes the newest action reflected in this frame, so
	// the player can measure response latency end to end.
	ActionIssued time.Duration
	Payload      []byte
}

// AppendSegment marshals a segment message into dst and returns the
// extended slice.
func AppendSegment(dst []byte, s Segment) []byte {
	dst = AppendSegmentHeader(dst, s, len(s.Payload))
	return append(dst, s.Payload...)
}

// AppendSegmentHeader marshals a segment's fixed fields plus a payload
// length of payloadLen, without the payload bytes (s.Payload is ignored).
// The caller must append exactly payloadLen bytes afterward — this is the
// render-in-place hot path: the encoder writes the video bytes directly
// into the wire buffer with no intermediate slice.
func AppendSegmentHeader(dst []byte, s Segment, payloadLen int) []byte {
	dst = appendI64(dst, s.Player)
	dst = appendI64(dst, s.Seq)
	dst = appendU8(dst, s.Level)
	dst = appendI64(dst, int64(s.ActionIssued))
	return appendU32(dst, uint32(payloadLen))
}

// UnmarshalSegment decodes a segment message. The payload is copied, so the
// segment is safe to retain after the frame buffer is reused; the receive
// hot path should prefer UnmarshalSegmentInto.
func UnmarshalSegment(p []byte) (Segment, error) {
	var s Segment
	err := UnmarshalSegmentInto(p, &s)
	if err == nil {
		s.Payload = append([]byte(nil), s.Payload...)
	}
	return s, err
}

// UnmarshalSegmentInto decodes a segment message without copying the
// payload: s.Payload aliases p's storage, borrowed rather than owned. The
// decoded segment is valid only as long as p is — until the read buffer or
// pooled frame it came from is reused. Copy s.Payload (or use
// UnmarshalSegment) when the segment must outlive the frame.
func UnmarshalSegmentInto(p []byte, s *Segment) error {
	b := buffer{b: p}
	s.Player = b.ri64()
	s.Seq = b.ri64()
	s.Level = b.ru8()
	s.ActionIssued = time.Duration(b.ri64())
	n := int(b.ru32())
	if b.err != nil {
		return b.err
	}
	if n > len(p)-b.off {
		return fmt.Errorf("proto: segment payload length %d exceeds frame", n)
	}
	s.Payload = b.b[b.off : b.off+n]
	b.off += n
	return b.finish()
}

// JoinStream subscribes a player's rendered view at a supernode.
type JoinStream struct {
	Player   int64
	GameID   int32
	ViewX    float64
	ViewY    float64
	ViewR    float64
	LevelCap uint8
	// Ticket carries the player's encoded session ticket (MarshalTicket
	// bytes) so lease-enforcing workers can verify the placement and its
	// expiry; empty on deployments without leases.
	Ticket []byte
}

// MarshalJoinStream encodes a stream subscription.
func MarshalJoinStream(j JoinStream) []byte { return AppendJoinStream(nil, j) }

// AppendJoinStream marshals a stream subscription into dst and returns the
// extended slice — the allocation-free form of MarshalJoinStream.
func AppendJoinStream(dst []byte, j JoinStream) []byte {
	dst = appendI64(dst, j.Player)
	dst = appendU32(dst, uint32(j.GameID))
	dst = appendF64(dst, j.ViewX)
	dst = appendF64(dst, j.ViewY)
	dst = appendF64(dst, j.ViewR)
	dst = appendU8(dst, j.LevelCap)
	return appendBytes(dst, j.Ticket)
}

// UnmarshalJoinStream decodes a stream subscription.
func UnmarshalJoinStream(p []byte) (JoinStream, error) {
	b := buffer{b: p}
	var j JoinStream
	j.Player = b.ri64()
	j.GameID = int32(b.ru32())
	j.ViewX = b.rf64()
	j.ViewY = b.rf64()
	j.ViewR = b.rf64()
	j.LevelCap = b.ru8()
	j.Ticket = b.rbytes()
	return j, b.finish()
}

// Role identifies what a connecting peer is.
type Role uint8

const (
	// RolePlayerActions marks a player's action connection to the cloud.
	RolePlayerActions Role = iota + 1
	// RoleSupernode marks a supernode's update subscription at the cloud.
	RoleSupernode
)

// Hello is the first frame on any connection to the cloud.
type Hello struct {
	Role Role
	ID   int64
}

// MarshalHello encodes a hello.
func MarshalHello(h Hello) []byte { return AppendHello(nil, h) }

// AppendHello marshals a hello into dst and returns the extended slice —
// the allocation-free form of MarshalHello.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendU8(dst, uint8(h.Role))
	return appendI64(dst, h.ID)
}

// UnmarshalHello decodes a hello.
func UnmarshalHello(p []byte) (Hello, error) {
	b := buffer{b: p}
	h := Hello{Role: Role(b.ru8()), ID: b.ri64()}
	return h, b.finish()
}

// Ack codes: 0 is success, everything else names a refusal. Workers use the
// lease codes so a rejected player knows whether to renew (expired) or to
// fall back through its ring (refused / safe mode).
const (
	// AckOK accepts the request.
	AckOK uint32 = 0
	// AckRefused rejects a request the receiver will not serve (bad first
	// frame, unknown player, forged ticket).
	AckRefused uint32 = 1
	// AckExpired rejects a join whose ticket lease has lapsed; the player
	// should renew with the coordinator and retry.
	AckExpired uint32 = 2
	// AckSafeMode rejects a new placement at a worker that has lost the
	// coordinator and is serving only its existing leases.
	AckSafeMode uint32 = 3
)

// Ack acknowledges a request.
type Ack struct {
	Code uint32 // 0 = OK, see Ack* codes
}

// MarshalAck encodes an acknowledgement.
func MarshalAck(a Ack) []byte { return AppendAck(nil, a) }

// AppendAck marshals an acknowledgement into dst and returns the extended
// slice — the allocation-free form of MarshalAck.
func AppendAck(dst []byte, a Ack) []byte { return appendU32(dst, a.Code) }

// UnmarshalAck decodes an acknowledgement.
func UnmarshalAck(p []byte) (Ack, error) {
	b := buffer{b: p}
	a := Ack{Code: b.ru32()}
	return a, b.finish()
}
