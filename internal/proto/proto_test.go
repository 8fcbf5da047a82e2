package proto

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cloudfog/internal/world"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello fog")
	if err := WriteFrame(&buf, TSegment, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != TSegment || !bytes.Equal(got, payload) {
		t.Fatalf("frame round trip: %v %q", typ, got)
	}
}

// TestMsgTypeWireValues pins every frame type to its number on the wire. 7 is
// absent on purpose: it is reserved (a retired liveness beacon), and a type
// taking it would renumber nothing but would collide with old peers.
func TestMsgTypeWireValues(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  MsgType
		want uint8
	}{
		{"TAction", TAction, 1},
		{"TDelta", TDelta, 2},
		{"TSegment", TSegment, 3},
		{"TJoinStream", TJoinStream, 4},
		{"TAck", TAck, 5},
		{"THello", THello, 6},
		{"TRegister", TRegister, 8},
		{"TReport", TReport, 9},
		{"TPlace", TPlace, 10},
		{"TTicket", TTicket, 11},
		{"TSync", TSync, 12},
	} {
		if uint8(c.typ) != c.want {
			t.Errorf("%s = %d on the wire, want %d", c.name, c.typ, c.want)
		}
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TAck, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != TAck || len(got) != 0 {
		t.Fatalf("empty frame: %v %v %v", typ, got, err)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TDelta, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversize frame accepted")
	}
	// A corrupt header claiming a huge length must be rejected too.
	hdr := []byte{byte(TDelta), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("corrupt length accepted")
	}
}

func TestFrameShortRead(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, TAction, []byte("abcdef"))
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(short)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, TAction, []byte("a"))
	WriteFrame(&buf, TDelta, []byte("bb"))
	WriteFrame(&buf, TAck, []byte("ccc"))
	for i, want := range []MsgType{TAction, TDelta, TAck} {
		typ, p, err := ReadFrame(&buf)
		if err != nil || typ != want || len(p) != i+1 {
			t.Fatalf("frame %d: %v %v %v", i, typ, p, err)
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("want EOF at stream end, got %v", err)
	}
}

func TestActionRoundTrip(t *testing.T) {
	a := Action{
		Player: 42,
		Issued: 123456 * time.Microsecond,
		Act: world.Action{
			Player: 42,
			Kind:   world.ActionStrike,
			Target: world.Vec2{X: 1.5, Y: -2.25},
			Victim: 77,
		},
	}
	got, err := UnmarshalAction(AppendAction(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: %+v != %+v", got, a)
	}
}

func TestActionRoundTripProperty(t *testing.T) {
	f := func(player int64, issued int64, kind uint8, tx, ty float64, victim int64) bool {
		a := Action{
			Player: player,
			Issued: time.Duration(issued),
			Act: world.Action{
				Player: player,
				Kind:   world.ActionKind(kind % 3),
				Target: world.Vec2{X: tx, Y: ty},
				Victim: world.EntityID(victim),
			},
		}
		got, err := UnmarshalAction(AppendAction(nil, a))
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	d := world.Delta{
		FromVersion: 10,
		ToVersion:   17,
		Updated: []world.Entity{
			{ID: 1, Kind: world.KindAvatar, Owner: 9, Pos: world.Vec2{X: 3, Y: 4},
				Vel: world.Vec2{X: -1, Y: 0.5}, HP: 80, Version: 16},
			{ID: 2, Kind: world.KindObject, Pos: world.Vec2{X: 100, Y: 200}, HP: 100, Version: 17},
		},
		Removed: []world.EntityID{5, 6},
	}
	got, err := UnmarshalDelta(AppendDelta(nil, d))
	if err != nil {
		t.Fatal(err)
	}
	if got.FromVersion != d.FromVersion || got.ToVersion != d.ToVersion || got.Full != d.Full {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Updated) != 2 || got.Updated[0] != d.Updated[0] || got.Updated[1] != d.Updated[1] {
		t.Fatalf("updated mismatch: %+v", got.Updated)
	}
	if len(got.Removed) != 2 || got.Removed[0] != 5 || got.Removed[1] != 6 {
		t.Fatalf("removed mismatch: %+v", got.Removed)
	}
}

func TestDeltaFullFlag(t *testing.T) {
	d := world.Delta{ToVersion: 3, Full: true}
	got, err := UnmarshalDelta(AppendDelta(nil, d))
	if err != nil || !got.Full {
		t.Fatalf("full flag lost: %+v %v", got, err)
	}
}

func TestDeltaRejectsLyingCounts(t *testing.T) {
	d := world.Delta{ToVersion: 1}
	p := AppendDelta(nil, d)
	// Corrupt the updated-count field to claim 1M entities.
	p[17] = 0xFF
	p[18] = 0xFF
	if _, err := UnmarshalDelta(p); err == nil {
		t.Fatal("lying entity count accepted")
	}
}

func TestDeltaWireSizeMatchesEstimate(t *testing.T) {
	d := world.Delta{
		FromVersion: 1, ToVersion: 2,
		Updated: make([]world.Entity, 7),
		Removed: make([]world.EntityID, 3),
	}
	got := len(AppendDelta(nil, d))
	want := d.WireSize()
	if got != want {
		t.Fatalf("encoded %dB but WireSize estimates %dB", got, want)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	s := Segment{
		Player:       3,
		Seq:          991,
		Level:        4,
		ActionIssued: 55 * time.Millisecond,
		Payload:      bytes.Repeat([]byte{0xAB}, 5000),
	}
	got, err := UnmarshalSegment(AppendSegment(nil, s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Player != s.Player || got.Seq != s.Seq || got.Level != s.Level ||
		got.ActionIssued != s.ActionIssued || !bytes.Equal(got.Payload, s.Payload) {
		t.Fatalf("segment round trip mismatch")
	}
}

func TestSegmentRejectsLyingLength(t *testing.T) {
	s := Segment{Player: 1, Payload: []byte("abc")}
	p := AppendSegment(nil, s)
	p[len(p)-4-3] = 0xFF // inflate payload length
	if _, err := UnmarshalSegment(p); err == nil {
		t.Fatal("lying payload length accepted")
	}
}

func TestJoinStreamRoundTrip(t *testing.T) {
	for _, j := range []JoinStream{
		{Player: 12, GameID: 4, ViewX: 1000, ViewY: 2000, ViewR: 400, LevelCap: 5},
		{Player: 12, GameID: 4, LevelCap: 5, Ticket: []byte("signed-ticket")},
	} {
		got, err := UnmarshalJoinStream(MarshalJoinStream(j))
		if err != nil || !reflect.DeepEqual(got, j) {
			t.Fatalf("join round trip: %+v %v", got, err)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Role: RoleSupernode, ID: 1_000_042}
	got, err := UnmarshalHello(MarshalHello(h))
	if err != nil || got != h {
		t.Fatalf("hello round trip: %+v %v", got, err)
	}
	if _, err := UnmarshalHello([]byte{1}); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestAckRoundTrip(t *testing.T) {
	got, err := UnmarshalAck(MarshalAck(Ack{Code: 7}))
	if err != nil || got.Code != 7 {
		t.Fatalf("ack round trip: %+v %v", got, err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	p := MarshalAck(Ack{})
	p = append(p, 0x01)
	if _, err := UnmarshalAck(p); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestTruncatedPayloadsRejected(t *testing.T) {
	cases := [][]byte{
		AppendAction(nil, Action{})[:5],
		AppendDelta(nil, world.Delta{})[:3],
		AppendSegment(nil, Segment{})[:8],
		MarshalJoinStream(JoinStream{})[:2],
		{},
	}
	if _, err := UnmarshalAction(cases[0]); err == nil {
		t.Fatal("truncated action accepted")
	}
	if _, err := UnmarshalDelta(cases[1]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if _, err := UnmarshalSegment(cases[2]); err == nil {
		t.Fatal("truncated segment accepted")
	}
	if _, err := UnmarshalJoinStream(cases[3]); err == nil {
		t.Fatal("truncated join accepted")
	}
	if _, err := UnmarshalAck(cases[4]); err == nil {
		t.Fatal("empty ack accepted")
	}
}

// TestUnmarshalNeverPanics fuzzes the decoders with arbitrary bytes.
func TestUnmarshalNeverPanics(t *testing.T) {
	f := func(p []byte) bool {
		UnmarshalAction(p)
		UnmarshalDelta(p)
		UnmarshalSegment(p)
		UnmarshalJoinStream(p)
		UnmarshalAck(p)
		UnmarshalHello(p)
		UnmarshalRegister(p)
		UnmarshalReport(p)
		UnmarshalTicket(p)
		UnmarshalRenew(p)
		UnmarshalSync(p)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
