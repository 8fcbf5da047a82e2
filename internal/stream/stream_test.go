package stream

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloudfog/internal/game"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{SegmentDuration: 0, PacketSize: 1500}).Validate(); err == nil {
		t.Fatal("zero segment duration accepted")
	}
	if err := (Config{SegmentDuration: time.Second, PacketSize: 0}).Validate(); err == nil {
		t.Fatal("zero packet size accepted")
	}
}

// cfg100 is a 100 ms-segment config used by tests that pin byte counts.
func cfg100() Config { return Config{SegmentDuration: 100 * time.Millisecond, PacketSize: 1500} }

func TestSegmentBytes(t *testing.T) {
	cfg := cfg100()
	// 800 kbps × 0.1 s = 80,000 bits = 10,000 bytes.
	if got := cfg.SegmentBytes(800_000); got != 10_000 {
		t.Fatalf("SegmentBytes(800kbps) = %d, want 10000", got)
	}
	// 1800 kbps × 0.1 s = 22,500 bytes => 15 packets of 1500.
	if got := cfg.PacketsPerSegment(1_800_000); got != 15 {
		t.Fatalf("PacketsPerSegment(1800kbps) = %d, want 15", got)
	}
}

func TestPacketsCoverBytesProperty(t *testing.T) {
	cfg := cfg100()
	f := func(kbps uint16) bool {
		bitrate := int64(kbps)*1000 + 1000 // >= 1kbps
		bytes := cfg.SegmentBytes(bitrate)
		packets := cfg.PacketsPerSegment(bitrate)
		return packets*cfg.PacketSize >= bytes && (packets-1)*cfg.PacketSize < bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderStampsSegments(t *testing.T) {
	cfg := cfg100()
	g, _ := game.ByID(3) // 70ms budget, level 3 start
	e := NewEncoder(cfg, 42, g.Quality())
	s := e.Encode(100*time.Millisecond, 105*time.Millisecond, g)
	if s.PlayerID != 42 {
		t.Fatalf("player id = %d", s.PlayerID)
	}
	if e.Level().Level != 3 || s.Bytes != cfg.SegmentBytes(800_000) {
		t.Fatalf("encoder level/segment bytes = %d/%d", e.Level().Level, s.Bytes)
	}
	if s.ExpectedArrival() != 170*time.Millisecond {
		t.Fatalf("t_a = %v, want t_m + L_r = 170ms", s.ExpectedArrival())
	}
	if s.LossTolerance != g.LossTolerance {
		t.Fatal("loss tolerance not propagated")
	}
}

// dirty sets every field of v, nested structs included, to a non-zero value
// no encoder produces.
func dirty(t *testing.T, v reflect.Value) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(-99)
		case reflect.Float64:
			f.SetFloat(-1.5)
		case reflect.Struct:
			dirty(t, f)
		default:
			t.Fatalf("field %s: teach dirty about kind %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestEncodeIntoOverwritesEveryField: a recycled segment carries nothing of
// its last life — every field, Dropped and Stream included, is what a fresh
// Encode gives. A field added to Segment that EncodeInto forgets fails here.
func TestEncodeIntoOverwritesEveryField(t *testing.T) {
	cfg := cfg100()
	g, _ := game.ByID(2)
	e := NewEncoder(cfg, 42, g.Quality())
	e.SetStream(7)
	twin := *e
	var seg Segment
	dirty(t, reflect.ValueOf(&seg).Elem())
	e.EncodeInto(&seg, 100*time.Millisecond, 105*time.Millisecond, g)
	want := Segment{
		PlayerID: 42, Stream: 7,
		Bytes: cfg.SegmentBytes(g.Quality().Bitrate), Packets: cfg.PacketsPerSegment(g.Quality().Bitrate),
		ActionTime: 100 * time.Millisecond, LatencyReq: g.NetworkBudget(),
		LossTolerance: g.LossTolerance, Enqueued: 105 * time.Millisecond,
	}
	if seg != want {
		t.Fatalf("EncodeInto over a dirty segment:\n got %+v\nwant %+v", seg, want)
	}
	if fresh := *twin.Encode(100*time.Millisecond, 105*time.Millisecond, g); fresh != want {
		t.Fatalf("Encode:\n got %+v\nwant %+v", fresh, want)
	}
	var next Segment
	e.EncodeInto(&next, 0, 0, g)
	if next.Stream != 7 {
		t.Fatalf("next segment is of stream %d, want 7", next.Stream)
	}
}

func TestEncoderSetLevelChangesSize(t *testing.T) {
	cfg := cfg100()
	g, _ := game.ByID(3)
	e := NewEncoder(cfg, 1, g.Quality())
	before := e.Encode(0, 0, g).Bytes
	e.SetLevel(game.MustLevelAt(2))
	after := e.Encode(0, 0, g).Bytes
	if after >= before {
		t.Fatalf("lower level did not shrink segment: %d -> %d", before, after)
	}
}

// TestEncoderSizesMatchConfig holds the encoder's cached segment size to the
// config's arithmetic at every ladder level, whether the level came from
// NewEncoder or SetLevel, through Encode and EncodeInto.
func TestEncoderSizesMatchConfig(t *testing.T) {
	g, _ := game.ByID(3)
	for _, cfg := range []Config{DefaultConfig(), cfg100(), {SegmentDuration: 40 * time.Millisecond, PacketSize: 1200}} {
		moved := NewEncoder(cfg, 1, game.MustLevelAt(1))
		for _, q := range game.Ladder() {
			fresh := NewEncoder(cfg, 1, q)
			moved.SetLevel(q)
			wantBytes, wantPackets := cfg.SegmentBytes(q.Bitrate), cfg.PacketsPerSegment(q.Bitrate)
			var into Segment
			moved.EncodeInto(&into, 0, 0, g)
			for name, s := range map[string]*Segment{
				"NewEncoder": fresh.Encode(0, 0, g), "SetLevel": moved.Encode(0, 0, g), "EncodeInto": &into,
			} {
				if s.Bytes != wantBytes || s.Packets != wantPackets {
					t.Fatalf("%s at level %d: %d bytes in %d packets, config says %d in %d",
						name, q.Level, s.Bytes, s.Packets, wantBytes, wantPackets)
				}
			}
		}
	}
}

func TestSegmentDropAccounting(t *testing.T) {
	cfg := cfg100()
	g, _ := game.ByID(5) // loss tolerance 0.40
	e := NewEncoder(cfg, 1, g.Quality())
	s := e.Encode(0, 0, g)
	total := s.Packets
	budget := s.DropBudget()
	want := int(math.Floor(0.40 * float64(total)))
	if budget != want {
		t.Fatalf("drop budget = %d, want %d", budget, want)
	}
	s.Dropped = budget
	if s.DropBudget() != 0 {
		t.Fatalf("budget after max drops = %d, want 0", s.DropBudget())
	}
	if s.RemainingPackets() != total-budget {
		t.Fatal("remaining packets wrong")
	}
	if s.RemainingBytes(cfg.PacketSize) >= s.Bytes {
		t.Fatal("remaining bytes did not shrink")
	}
}

func TestRemainingBytesNeverNegative(t *testing.T) {
	s := &Segment{Bytes: 1000, Packets: 1, Dropped: 5}
	if s.RemainingBytes(1500) != 0 {
		t.Fatal("remaining bytes went negative")
	}
}

func TestReceiverBufferFillAndDrain(t *testing.T) {
	cfg := cfg100()
	b := NewReceiverBuffer(cfg, 800_000) // drains 100,000 B/s
	b.OnArrival(0, 50_000)
	b.Advance(200 * time.Millisecond) // plays 20,000 bytes
	if got := b.BufferedBytes(); math.Abs(got-30_000) > 1 {
		t.Fatalf("buffered = %v, want 30000", got)
	}
	// r in segments: 30,000 / 10,000 = 3 segments.
	if r := b.Segments(800_000); math.Abs(r-3) > 0.01 {
		t.Fatalf("r = %v, want 3", r)
	}
}

func TestReceiverBufferStalls(t *testing.T) {
	cfg := cfg100()
	b := NewReceiverBuffer(cfg, 800_000)
	b.OnArrival(0, 10_000) // 100ms of video
	b.Advance(300 * time.Millisecond)
	if !b.Stalled() {
		t.Fatal("buffer should be stalled")
	}
	// 100ms played, 200ms starved.
	if st := b.StallTime(); st < 190*time.Millisecond || st > 210*time.Millisecond {
		t.Fatalf("stall time = %v, want ~200ms", st)
	}
	if b.StallCount() != 1 {
		t.Fatalf("stall count = %d, want 1", b.StallCount())
	}
	// Refill ends the stall without incrementing the count again until the
	// next distinct interruption.
	b.OnArrival(310*time.Millisecond, 50_000)
	b.Advance(320 * time.Millisecond)
	if b.Stalled() {
		t.Fatal("buffer should have recovered")
	}
	b.Advance(2 * time.Second)
	if b.StallCount() != 2 {
		t.Fatalf("stall count = %d, want 2 after second interruption", b.StallCount())
	}
}

func TestReceiverBufferAdvanceMonotonic(t *testing.T) {
	b := NewReceiverBuffer(cfg100(), 800_000)
	b.OnArrival(time.Second, 10_000)
	before := b.BufferedBytes()
	b.Advance(500 * time.Millisecond) // time going backwards is ignored
	if b.BufferedBytes() != before {
		t.Fatal("backwards Advance changed state")
	}
}

func TestReceiverBufferPlaybackRateChange(t *testing.T) {
	b := NewReceiverBuffer(cfg100(), 800_000)
	b.OnArrival(0, 100_000)
	b.SetPlaybackBitrate(400_000) // drains 50,000 B/s now
	b.Advance(time.Second)
	if got := b.BufferedBytes(); math.Abs(got-50_000) > 1 {
		t.Fatalf("buffered after rate change = %v, want 50000", got)
	}
}

func TestContinuityMeterBasics(t *testing.T) {
	var m ContinuityMeter
	if m.Continuity() != 1 {
		t.Fatal("empty meter continuity != 1")
	}
	m.RecordPackets(9, 10)
	m.RecordPackets(10, 10)
	if got := m.Continuity(); math.Abs(got-0.95) > 1e-12 {
		t.Fatalf("continuity = %v, want 0.95", got)
	}
	if !m.Satisfied() {
		t.Fatal("95% on-time should satisfy")
	}
	m.RecordPackets(0, 10)
	if m.Satisfied() {
		t.Fatal("63% on-time should not satisfy")
	}
	if m.Total() != 30 {
		t.Fatalf("total = %d, want 30", m.Total())
	}
}

func TestContinuityMeterRecordSegment(t *testing.T) {
	cfg := cfg100()
	g, _ := game.ByID(4)
	e := NewEncoder(cfg, 1, g.Quality())
	s := e.Encode(0, 0, g)
	s.Dropped = 2

	var m ContinuityMeter
	m.RecordSegment(s, true)
	// Dropped packets count against continuity even when the rest is on time.
	want := float64(s.Packets-2) / float64(s.Packets)
	if got := m.Continuity(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("continuity = %v, want %v", got, want)
	}

	var late ContinuityMeter
	late.RecordSegment(s, false)
	if late.Continuity() != 0 {
		t.Fatal("late segment should contribute zero on-time packets")
	}
}

func TestContinuityMeterPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RecordPackets(11,10) did not panic")
		}
	}()
	var m ContinuityMeter
	m.RecordPackets(11, 10)
}

func TestBufferConservationProperty(t *testing.T) {
	// Property: played + buffered == arrived, regardless of arrival pattern.
	f := func(arrivals []uint16) bool {
		b := NewReceiverBuffer(cfg100(), 800_000)
		now := time.Duration(0)
		var arrived float64
		for _, a := range arrivals {
			now += 50 * time.Millisecond
			b.OnArrival(now, int(a))
			arrived += float64(a)
		}
		b.Advance(now + time.Second)
		return math.Abs(arrived-(b.BufferedBytes()+b.playedBytes)) < 1e-6 &&
			b.BufferedBytes() >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
