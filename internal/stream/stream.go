// Package stream models game-video streaming at segment and packet
// granularity: encoding segments at a ladder bitrate, packetizing them, and
// accounting for receiver-side buffering, playback and continuity.
//
// The CloudFog evaluation never inspects video content — only sizes, rates
// and deadlines matter — so a segment here is a (bitrate × duration) byte
// budget split into MTU-sized packets.
package stream

import (
	"fmt"
	"math"
	"time"

	"cloudfog/internal/game"
)

// Config holds the streaming constants shared by senders and receivers.
type Config struct {
	// SegmentDuration is the video time τ covered by one segment.
	SegmentDuration time.Duration
	// PacketSize is the packet payload size in bytes (MTU-sized).
	PacketSize int
}

// DefaultConfig returns the configuration used by all experiments: one video
// frame per segment (the paper streams at 30 fps and budgets response
// latency per action, so game video cannot buffer multi-frame segments) and
// 1500-byte packets.
func DefaultConfig() Config {
	return Config{SegmentDuration: time.Second / 30, PacketSize: 1500}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SegmentDuration <= 0 {
		return fmt.Errorf("stream: non-positive segment duration %v", c.SegmentDuration)
	}
	if c.PacketSize <= 0 {
		return fmt.Errorf("stream: non-positive packet size %d", c.PacketSize)
	}
	return nil
}

// SegmentBytes returns the size in bytes of one segment encoded at the given
// bitrate (bits/second).
func (c Config) SegmentBytes(bitrate int64) int {
	bits := float64(bitrate) * c.SegmentDuration.Seconds()
	return int(math.Ceil(bits / 8))
}

// PacketsPerSegment returns how many packets a segment of the given bitrate
// occupies.
func (c Config) PacketsPerSegment(bitrate int64) int {
	return (c.SegmentBytes(bitrate) + c.PacketSize - 1) / c.PacketSize
}

// Segment is one encoded chunk of a player's game video, queued at a
// supernode (or cloud server) for transmission.
type Segment struct {
	// PlayerID identifies the destination player.
	PlayerID int64
	// Stream is the index of this segment's stream at its sender (see
	// Encoder.SetStream): the sender finds the stream's state by it — its
	// session, its Eq. 13 estimator — instead of hashing PlayerID per segment.
	Stream int
	// Bytes is the encoded size; Packets the packet count.
	Bytes   int
	Packets int
	// Dropped counts packets the sender scheduler discarded from this
	// segment to meet deadlines.
	Dropped int
	// ActionTime t_m is when the player issued the action this segment
	// responds to.
	ActionTime time.Duration
	// LatencyReq is the game's network latency requirement L̃_r for this
	// segment; the expected arrival time t_a = ActionTime + LatencyReq.
	LatencyReq time.Duration
	// LossTolerance L̃_t is the game's packet-loss tolerance rate.
	LossTolerance float64
	// Enqueued is when the segment entered the sender buffer.
	Enqueued time.Duration
}

// ExpectedArrival returns t_a = t_m + L̃_r (paper §III-C).
func (s *Segment) ExpectedArrival() time.Duration { return s.ActionTime + s.LatencyReq }

// RemainingPackets returns the packets still to transmit after drops.
func (s *Segment) RemainingPackets() int { return s.Packets - s.Dropped }

// RemainingBytes returns the bytes still to transmit after drops.
func (s *Segment) RemainingBytes(packetSize int) int {
	rem := s.Bytes - s.Dropped*packetSize
	if rem < 0 {
		return 0
	}
	return rem
}

// DropBudget returns how many more packets may be dropped from this segment
// without exceeding its game's loss tolerance rate.
func (s *Segment) DropBudget() int {
	max := int(math.Floor(s.LossTolerance * float64(s.Packets)))
	if s.Dropped >= max {
		return 0
	}
	return max - s.Dropped
}

// Encoder produces segments for one player's stream at a mutable quality
// level. The adaptation strategy moves the level; the encoder just stamps
// segments.
type Encoder struct {
	cfg      Config
	playerID int64
	stream   int
	level    game.QualityLevel
	// bytes and packets are a segment's size at level, worked out when the
	// level is set instead of once per frame.
	bytes, packets int
}

// NewEncoder returns an encoder starting at the given ladder level.
func NewEncoder(cfg Config, playerID int64, start game.QualityLevel) *Encoder {
	e := &Encoder{cfg: cfg, playerID: playerID}
	e.SetLevel(start)
	return e
}

// SetStream numbers this encoder's stream at its sender; every segment it
// encodes from here on carries the number. A sender that multiplexes several
// streams through one sched.Buffer numbers them 0..n-1. The default, 0, suits
// a sender with one stream or one that keeps no per-stream state.
func (e *Encoder) SetStream(i int) { e.stream = i }

// Level returns the current encoding operating point.
func (e *Encoder) Level() game.QualityLevel { return e.level }

// SetLevel changes the encoding operating point for subsequent segments.
func (e *Encoder) SetLevel(q game.QualityLevel) {
	e.level = q
	e.bytes = e.cfg.SegmentBytes(q.Bitrate)
	e.packets = e.cfg.PacketsPerSegment(q.Bitrate)
}

// EncodeInto writes the next segment, for an action issued at actionTime and
// a game with the given tolerances, into caller-provided storage: it
// overwrites every field of s (including Dropped). The QoE hot loop recycles
// segments through a pool instead of allocating one per simulated frame, so
// it writes field by field, because a composite literal is built in a
// temporary and copied over s.
func (e *Encoder) EncodeInto(s *Segment, actionTime, enqueued time.Duration, g game.Game) {
	s.PlayerID = e.playerID
	s.Stream = e.stream
	s.Bytes = e.bytes
	s.Packets = e.packets
	s.Dropped = 0
	s.ActionTime = actionTime
	s.LatencyReq = g.NetworkBudget()
	s.LossTolerance = g.LossTolerance
	s.Enqueued = enqueued
}

// ReceiverBuffer models the player-side segment buffer of §III-B: arrivals
// add bytes, playback drains at the current video bitrate, and the occupancy
// in segments (r of Eq. 8) drives the encoding-rate adaptation.
type ReceiverBuffer struct {
	cfg          Config
	arrivedBytes float64
	playedBytes  float64
	lastAdvance  time.Duration
	playbackBits float64 // playback rate b_p in bits/second
	playing      bool
	prebuffer    float64
	stallTime    time.Duration
	stallCount   int
	stalled      bool
}

// NewReceiverBuffer returns a buffer playing back at the given bitrate.
func NewReceiverBuffer(cfg Config, playbackBitrate int64) *ReceiverBuffer {
	return &ReceiverBuffer{cfg: cfg, playbackBits: float64(playbackBitrate), playing: true}
}

// SetPrebuffer delays playback start until the given number of bytes has
// been buffered. Game players hold a small startup buffer (a couple of
// frames) so that the occupancy signal r of Eq. 8 has headroom in both
// directions; without it a healthy stream would sit at r ~ 0 and the
// adaptation of §III-B would spuriously adjust down.
func (b *ReceiverBuffer) SetPrebuffer(bytes float64) {
	if b.arrivedBytes-b.playedBytes < bytes {
		b.playing = false
		b.prebuffer = bytes
	}
}

// SetPlaybackBitrate changes the playback drain rate (the player switched
// quality levels along with the encoder).
func (b *ReceiverBuffer) SetPlaybackBitrate(bitrate int64) { b.playbackBits = float64(bitrate) }

// OnArrival records delivery of n bytes at virtual time now.
func (b *ReceiverBuffer) OnArrival(now time.Duration, n int) {
	b.Advance(now)
	b.arrivedBytes += float64(n)
}

// Advance plays video forward to virtual time now, draining the buffer at
// the playback bitrate and accounting stalls when it runs dry.
func (b *ReceiverBuffer) Advance(now time.Duration) {
	if now <= b.lastAdvance {
		return
	}
	dt := (now - b.lastAdvance).Seconds()
	b.lastAdvance = now
	if !b.playing {
		if b.arrivedBytes-b.playedBytes >= b.prebuffer {
			b.playing = true
		}
		return
	}
	want := b.playbackBits / 8 * dt
	avail := b.arrivedBytes - b.playedBytes
	if want <= avail {
		b.playedBytes += want
		b.stalled = false
		return
	}
	// Ran dry: play what is buffered, stall for the remainder of dt.
	b.playedBytes += avail
	short := want - avail
	stallSec := short / (b.playbackBits / 8)
	b.stallTime += time.Duration(stallSec * float64(time.Second))
	if !b.stalled {
		b.stallCount++
		b.stalled = true
	}
}

// BufferedBytes returns the bytes buffered and not yet played.
func (b *ReceiverBuffer) BufferedBytes() float64 { return b.arrivedBytes - b.playedBytes }

// Segments returns the buffer occupancy r in units of segments at the given
// bitrate (Eq. 8: r = s(t_k)/τ with τ expressed as a segment's byte size).
func (b *ReceiverBuffer) Segments(bitrate int64) float64 {
	seg := float64(b.cfg.SegmentBytes(bitrate))
	if seg <= 0 {
		return 0
	}
	return b.BufferedBytes() / seg
}

// StallTime returns the accumulated playback-stall time.
func (b *ReceiverBuffer) StallTime() time.Duration { return b.stallTime }

// StallCount returns the number of distinct playback interruptions.
func (b *ReceiverBuffer) StallCount() int { return b.stallCount }

// Stalled reports whether playback is currently starved.
func (b *ReceiverBuffer) Stalled() bool { return b.stalled }

// Playing reports whether playback has started (the prebuffer threshold has
// been reached).
func (b *ReceiverBuffer) Playing() bool { return b.playing }

// ContinuityMeter measures playback continuity as the paper does: the
// proportion of packets that arrive within the required response latency
// over all packets of a game video (dropped packets never arrive on time).
type ContinuityMeter struct {
	onTime int64
	total  int64
}

// RecordPackets accounts n packets of which onTime arrived within deadline.
func (m *ContinuityMeter) RecordPackets(onTime, n int) {
	if onTime > n {
		panic(fmt.Sprintf("stream: onTime %d > total %d", onTime, n))
	}
	m.onTime += int64(onTime)
	m.total += int64(n)
}

// RecordSegment accounts a whole segment: its surviving packets arrived
// on time or late; its dropped packets count as not-on-time.
func (m *ContinuityMeter) RecordSegment(s *Segment, arrivedOnTime bool) {
	on := 0
	if arrivedOnTime {
		on = s.RemainingPackets()
	}
	m.RecordPackets(on, s.Packets)
}

// Continuity returns the on-time fraction, or 1 when nothing was recorded
// (an idle stream has not been interrupted).
func (m *ContinuityMeter) Continuity() float64 {
	if m.total == 0 {
		return 1
	}
	return float64(m.onTime) / float64(m.total)
}

// Total returns the number of packets recorded.
func (m *ContinuityMeter) Total() int64 { return m.total }

// OnTime returns the number of packets recorded as on time. Together with
// Total these are the meter's raw integer tallies: integer addition is
// associative, so multi-epoch runs can merge per-player continuity exactly
// however the epochs were executed.
func (m *ContinuityMeter) OnTime() int64 { return m.onTime }

// SatisfactionThreshold is the paper's satisfied-player bar: a player who
// receives 95% of game packets within the game's response latency is
// satisfied.
const SatisfactionThreshold = 0.95

// Satisfied reports whether the stream meets the satisfaction threshold.
func (m *ContinuityMeter) Satisfied() bool {
	return m.Continuity() >= SatisfactionThreshold
}
