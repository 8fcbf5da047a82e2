package proto

import (
	"bytes"
	"testing"
	"time"

	"cloudfog/internal/world"
)

// Native fuzz targets: `go test -fuzz FuzzDecodeDelta ./internal/proto`.
// In normal test runs they execute over the seed corpus only.

func FuzzDecodeAction(f *testing.F) {
	f.Add(AppendAction(nil, Action{Player: 1, Issued: time.Millisecond}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, p []byte) {
		a, err := UnmarshalAction(p)
		if err != nil {
			return
		}
		// Valid decodes must re-encode to the same bytes.
		if !bytes.Equal(AppendAction(nil, a), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

func FuzzDecodeDelta(f *testing.F) {
	d := world.Delta{
		FromVersion: 3, ToVersion: 9,
		Updated: []world.Entity{{ID: 1, Kind: world.KindAvatar, Owner: 2, HP: 50, Version: 9}},
		Removed: []world.EntityID{7},
	}
	f.Add(AppendDelta(nil, d))
	f.Add(AppendDelta(nil, world.Delta{Full: true}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := UnmarshalDelta(p)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendDelta(nil, got), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

func FuzzDecodeSegment(f *testing.F) {
	f.Add(AppendSegment(nil, Segment{Player: 1, Seq: 2, Level: 3, Payload: []byte("xyz")}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := UnmarshalSegment(p)
		if err != nil {
			return
		}
		if !bytes.Equal(AppendSegment(nil, got), p) {
			t.Fatalf("re-encode mismatch for %x", p)
		}
	})
}

// FuzzAppendMatchesMarshal drives the pooled Append* encoders against a fresh
// encode (Append*(nil, m)) with fuzzed fields and prefixes: appending into a
// dirty buffer must yield exactly prefix + those bytes, and the split segment
// encode (header then raw payload) must match the one-shot form.
func FuzzAppendMatchesMarshal(f *testing.F) {
	f.Add([]byte("prefix"), int64(1), int64(2), uint8(3), int64(4), []byte("payload"))
	f.Add([]byte{}, int64(-1), int64(0), uint8(0), int64(-9), []byte{})
	f.Fuzz(func(t *testing.T, prefix []byte, player, seq int64, level uint8, issued int64, payload []byte) {
		check := func(name string, appended, marshaled []byte) {
			t.Helper()
			if !bytes.Equal(appended[:len(prefix)], prefix) {
				t.Fatalf("%s: prefix clobbered", name)
			}
			if !bytes.Equal(appended[len(prefix):], marshaled) {
				t.Fatalf("%s: appended bytes diverge from marshaled", name)
			}
		}
		pfx := func() []byte { return append([]byte(nil), prefix...) }

		s := Segment{Player: player, Seq: seq, Level: level % 8,
			ActionIssued: time.Duration(issued), Payload: payload}
		check("segment", AppendSegment(pfx(), s), AppendSegment(nil, s))
		split := AppendSegmentHeader(pfx(), s, len(payload))
		check("segment-split", append(split, payload...), AppendSegment(nil, s))

		a := Action{Player: player, Issued: time.Duration(issued),
			Act: world.Action{Player: player, Kind: world.ActionKind(level % 3),
				Target: world.Vec2{X: float64(seq), Y: float64(issued)}, Victim: world.EntityID(seq)}}
		check("action", AppendAction(pfx(), a), AppendAction(nil, a))

		d := world.Delta{FromVersion: uint64(player), ToVersion: uint64(seq),
			Updated: []world.Entity{{ID: world.EntityID(seq), Kind: world.KindAvatar,
				Owner: player, HP: int32(level), Version: uint64(seq)}},
			Removed: []world.EntityID{world.EntityID(issued)}}
		check("delta", AppendDelta(pfx(), d), AppendDelta(nil, d))

		j := JoinStream{Player: player, GameID: int32(level % 8), ViewX: float64(seq),
			ViewY: float64(issued), ViewR: 100, LevelCap: level, Ticket: payload}
		check("join", AppendJoinStream(pfx(), j), MarshalJoinStream(j))

		check("renew", AppendRenew(pfx(), Renew{Player: player, Epoch: uint64(seq)}),
			AppendRenew(nil, Renew{Player: player, Epoch: uint64(seq)}))
		check("sync", AppendSync(pfx(), Sync{Now: issued, LeaseTTL: seq}),
			AppendSync(nil, Sync{Now: issued, LeaseTTL: seq}))

		check("hello", AppendHello(pfx(), Hello{Role: Role(level), ID: player}),
			MarshalHello(Hello{Role: Role(level), ID: player}))
		check("ack", AppendAck(pfx(), Ack{Code: uint32(seq)}), MarshalAck(Ack{Code: uint32(seq)}))

		// Encode-in-place framing must agree with the one-shot AppendFrame.
		inPlace := BeginFrame(pfx(), TSegment)
		inPlace = AppendSegment(inPlace, s)
		if err := FinishFrame(inPlace, len(prefix)); err != nil {
			t.Fatalf("FinishFrame: %v", err)
		}
		check("frame", inPlace, AppendFrame(nil, TSegment, AppendSegment(nil, s)))
	})
}

func FuzzDecodeFrame(f *testing.F) {
	var buf bytes.Buffer
	WriteFrame(&buf, TSegment, []byte("payload"))
	f.Add(buf.Bytes())
	f.Add([]byte{byte(TDelta), 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, p []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(p))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteFrame(&out, typ, payload); err != nil {
			t.Fatalf("re-frame failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), p[:out.Len()]) {
			t.Fatal("re-framed bytes diverge")
		}
	})
}

// FuzzDecodeCoordFrames feeds every input to the six control-plane decoders:
// whatever one of them accepts must re-encode, through its Append* form, to
// exactly the input bytes — a decoder that accepts two spellings of one
// message is a finding.
func FuzzDecodeCoordFrames(f *testing.F) {
	f.Add(MarshalRegister(Register{Worker: 3, Capacity: 8, Load: 2, X: 1.5, Y: -2, Transport: StreamUDP,
		Addr: "127.0.0.1:7000", Sessions: []int64{4, 5}}))
	f.Add(AppendReport(nil, Report{Worker: 3, Seq: 9, Load: 2, Capacity: 8, Level: 3, Draining: 1}))
	f.Add(AppendPlace(nil, Place{Player: 4, GameID: 2, X: 10, Y: 20}))
	f.Add(MarshalTicket(Ticket{Player: 4, Worker: 3, Epoch: 7, Issued: 11, Expiry: 99, Transport: StreamTCP,
		Addr: "127.0.0.1:7000", Backups: []string{"127.0.0.1:7001", ""}, Sig: []byte("sig")}))
	f.Add(AppendRenew(nil, Renew{Player: 4, Epoch: 7}))
	f.Add(AppendSync(nil, Sync{Now: 12345, LeaseTTL: 3e9}))
	f.Add([]byte{})
	roundTrips := map[string]func([]byte) ([]byte, error){
		"register": func(p []byte) ([]byte, error) { m, err := UnmarshalRegister(p); return AppendRegister(nil, m), err },
		"report":   func(p []byte) ([]byte, error) { m, err := UnmarshalReport(p); return AppendReport(nil, m), err },
		"place":    func(p []byte) ([]byte, error) { m, err := UnmarshalPlace(p); return AppendPlace(nil, m), err },
		"ticket":   func(p []byte) ([]byte, error) { m, err := UnmarshalTicket(p); return AppendTicket(nil, m), err },
		"renew":    func(p []byte) ([]byte, error) { m, err := UnmarshalRenew(p); return AppendRenew(nil, m), err },
		"sync":     func(p []byte) ([]byte, error) { m, err := UnmarshalSync(p); return AppendSync(nil, m), err },
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		for name, roundTrip := range roundTrips {
			if again, err := roundTrip(p); err == nil && !bytes.Equal(again, p) {
				t.Fatalf("%s: %x decodes but re-encodes as %x", name, p, again)
			}
		}
	})
}
