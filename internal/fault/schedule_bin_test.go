package fault

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func binTestSchedule(t testing.TB) *Schedule {
	t.Helper()
	p := &Profile{
		Name:     "bin-test",
		Seed:     77,
		Duration: Dur(90 * time.Second),
		Specs: []Spec{
			{Kind: KindCrash, MTTF: Dur(20 * time.Second), MTTR: Dur(10 * time.Second),
				Detect: Dur(5 * time.Second), TargetFrac: 0.5},
			{Kind: KindLoss, MeanGood: Dur(40 * time.Second), MeanBad: Dur(5 * time.Second),
				LossFrac: 0.2},
			{Kind: KindLatency, MeanGood: Dur(60 * time.Second), MeanBad: Dur(8 * time.Second),
				Extra: Dur(25 * time.Millisecond)},
		},
	}
	targets := Targets{}
	for i := int64(0); i < 20; i++ {
		targets.Supernodes = append(targets.Supernodes, Node{ID: 1000 + i, X: float64(i), Y: float64(i % 5)})
	}
	s, err := Compile(p, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) == 0 {
		t.Fatal("compiled schedule has no events")
	}
	return s
}

// FuzzUnmarshalSchedule: `go test -fuzz FuzzUnmarshalSchedule
// ./internal/fault`. Whatever UnmarshalSchedule accepts is a schedule the
// injectors would replay, so it must marshal again; a plain `go test` runs
// the seeds only.
func FuzzUnmarshalSchedule(f *testing.F) {
	s := binTestSchedule(f)
	data, err := s.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	empty, err := (&Schedule{Profile: &Profile{Name: "empty", Duration: Dur(time.Second)}}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(empty)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSchedule(data)
		if err != nil {
			return
		}
		if _, err := s.MarshalBinary(); err != nil {
			t.Fatalf("accepted schedule does not marshal: %v", err)
		}
	})
}

// TestScheduleBinaryRoundTrip proves a persisted schedule decodes to the
// bit-identical injected-event log: same events, same pre-resolved
// impairment windows, same checksum.
func TestScheduleBinaryRoundTrip(t *testing.T) {
	s := binTestSchedule(t)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("events differ after round trip (%d vs %d)", len(got.Events), len(s.Events))
	}
	if !reflect.DeepEqual(got.lossW, s.lossW) || !reflect.DeepEqual(got.latW, s.latW) ||
		!reflect.DeepEqual(got.bwW, s.bwW) {
		t.Fatal("impairment windows differ after round trip")
	}
	if got.Profile.Name != s.Profile.Name || got.Profile.Seed != s.Profile.Seed {
		t.Fatalf("profile differs after round trip: %+v", got.Profile)
	}
	sum1, err := s.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := got.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != sum2 {
		t.Fatalf("checksum changed across round trip: %08x vs %08x", sum1, sum2)
	}
}

// TestScheduleBinaryRejectsStale covers the loud-failure contract for
// persisted schedules: bad magic, future version, flipped payload bytes,
// truncation, and duplicate chunks all fail before any event is replayed.
func TestScheduleBinaryRejectsStale(t *testing.T) {
	s := binTestSchedule(t)
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), data...)
	bad[0] = 'Z'
	if _, err := UnmarshalSchedule(bad); err == nil {
		t.Fatal("wrong magic accepted")
	}

	future := append([]byte(nil), data...)
	future[4] = ScheduleVersion + 1
	if _, err := UnmarshalSchedule(future); err == nil {
		t.Fatal("future version accepted")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version error does not mention version: %v", err)
	}

	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	if _, err := UnmarshalSchedule(flipped); err == nil {
		t.Fatal("bit flip accepted")
	}

	if _, err := UnmarshalSchedule(data[:len(data)-2]); err == nil {
		t.Fatal("truncation accepted")
	}

	if _, err := UnmarshalSchedule(data[:5]); err == nil {
		t.Fatal("header-only schedule accepted")
	}

	// A schedule persisted before storm retired fails on its embedded profile.
	retired := &Schedule{Profile: &Profile{Duration: Dur(time.Minute), Specs: []Spec{{Kind: "storm"}}}}
	old, err := retired.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSchedule(old); err == nil || !strings.Contains(err.Error(), `"storm"`) {
		t.Fatalf("schedule naming a retired kind: error %v", err)
	}
}

// TestScheduleChecksumTracksContent: two different profiles compile to
// different checksums (the fingerprint actually discriminates).
func TestScheduleChecksumTracksContent(t *testing.T) {
	s := binTestSchedule(t)
	sum1, err := s.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	p2 := *s.Profile
	p2.Seed++
	targets := Targets{}
	for i := int64(0); i < 20; i++ {
		targets.Supernodes = append(targets.Supernodes, Node{ID: 1000 + i, X: float64(i), Y: float64(i % 5)})
	}
	s2, err := Compile(&p2, targets)
	if err != nil {
		t.Fatal(err)
	}
	sum2, err := s2.Checksum()
	if err != nil {
		t.Fatal(err)
	}
	if sum1 == sum2 {
		t.Fatal("different profiles produced the same schedule checksum")
	}
}
