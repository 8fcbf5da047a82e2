package fault

import (
	"encoding/json"
	"fmt"
	"time"

	"cloudfog/internal/recfmt"
)

// ScheduleMagic and ScheduleVersion stamp every persisted compiled schedule
// with the same recfmt versioned header the flight recorder uses. A compiled
// schedule IS the injected-event log the resilience figures replay, so a
// stale or bit-rotted schedule must fail loudly at load time — a silent
// mis-decode would replay garbage faults and corrupt every downstream QoE
// comparison.
const (
	ScheduleMagic   = "CFSC"
	ScheduleVersion = 1
)

// Schedule chunk types.
const (
	schedChunkProfile = 1 // the source profile, as validated JSON
	schedChunkEvents  = 2 // the compiled event list, delta-encoded
	schedChunkWindows = 3 // the pre-resolved impairment windows
)

// MarshalBinary encodes the compiled schedule as a recfmt file: header,
// profile chunk (the JSON source, so a decoded schedule is self-contained),
// event chunk (times delta-encoded — schedules are time-sorted, so deltas
// varint-pack far smaller than absolute nanoseconds), and window chunk.
// Every chunk carries its own CRC-32C.
func (s *Schedule) MarshalBinary() ([]byte, error) {
	if s.Profile == nil {
		return nil, fmt.Errorf("fault: schedule has no profile")
	}
	pj, err := json.Marshal(s.Profile)
	if err != nil {
		return nil, fmt.Errorf("fault: marshal profile: %w", err)
	}
	out := recfmt.AppendHeader(nil, ScheduleMagic, ScheduleVersion)
	out = recfmt.AppendChunk(out, schedChunkProfile, pj)

	var ev []byte
	ev = recfmt.AppendUvarint(ev, uint64(len(s.Events)))
	prev := time.Duration(0)
	for _, e := range s.Events {
		ev = recfmt.AppendVarint(ev, int64(e.At-prev))
		prev = e.At
		ev = recfmt.AppendUvarint(ev, uint64(e.Op))
		ev = recfmt.AppendVarint(ev, e.Node)
		ev = recfmt.AppendVarint(ev, int64(e.D))
		ev = recfmt.AppendFloat64(ev, e.F)
	}
	out = recfmt.AppendChunk(out, schedChunkEvents, ev)

	var win []byte
	for _, ws := range [][]window{s.lossW, s.latW, s.bwW} {
		win = recfmt.AppendUvarint(win, uint64(len(ws)))
		for _, w := range ws {
			win = recfmt.AppendVarint(win, int64(w.from))
			win = recfmt.AppendVarint(win, int64(w.to))
			win = recfmt.AppendFloat64(win, w.f)
			win = recfmt.AppendVarint(win, int64(w.d))
		}
	}
	out = recfmt.AppendChunk(out, schedChunkWindows, win)
	return out, nil
}

// UnmarshalSchedule decodes a persisted schedule, rejecting bad magics,
// newer format versions, and checksum mismatches before touching any event.
// The embedded profile is re-validated, so a decoded schedule is exactly as
// trustworthy as a freshly compiled one.
func UnmarshalSchedule(data []byte) (*Schedule, error) {
	_, rest, err := recfmt.CheckHeader(data, ScheduleMagic, ScheduleVersion)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	s := &Schedule{}
	seen := map[uint64]bool{}
	for {
		typ, payload, r, done, err := recfmt.NextChunk(rest)
		if err != nil {
			return nil, fmt.Errorf("fault: %w", err)
		}
		if done {
			break
		}
		rest = r
		if seen[typ] {
			return nil, fmt.Errorf("fault: duplicate schedule chunk %d", typ)
		}
		seen[typ] = true
		switch typ {
		case schedChunkProfile:
			p, err := Parse(payload)
			if err != nil {
				return nil, err
			}
			s.Profile = p
		case schedChunkEvents:
			rd := recfmt.NewReader(payload)
			n := rd.Count()
			if n > 0 {
				s.Events = make([]Event, 0, n)
			}
			at := time.Duration(0)
			for i := uint64(0); i < n; i++ {
				at += time.Duration(rd.Varint())
				e := Event{
					At:   at,
					Op:   Op(rd.Uvarint()),
					Node: rd.Varint(),
					D:    time.Duration(rd.Varint()),
					F:    rd.Float64(),
				}
				s.Events = append(s.Events, e)
			}
			if err := rd.Expect(); err != nil {
				return nil, fmt.Errorf("fault: events chunk: %w", err)
			}
		case schedChunkWindows:
			rd := recfmt.NewReader(payload)
			for _, dst := range []*[]window{&s.lossW, &s.latW, &s.bwW} {
				n := rd.Count()
				var ws []window // nil when empty, matching Compile
				for i := uint64(0); i < n; i++ {
					ws = append(ws, window{
						from: time.Duration(rd.Varint()),
						to:   time.Duration(rd.Varint()),
						f:    rd.Float64(),
						d:    time.Duration(rd.Varint()),
					})
				}
				*dst = ws
			}
			if err := rd.Expect(); err != nil {
				return nil, fmt.Errorf("fault: windows chunk: %w", err)
			}
		default:
			return nil, fmt.Errorf("fault: unknown schedule chunk %d", typ)
		}
	}
	if s.Profile == nil || !seen[schedChunkEvents] {
		return nil, fmt.Errorf("fault: schedule missing profile or events chunk")
	}
	return s, nil
}

// Checksum returns a digest of the full marshaled schedule — the compact
// fingerprint flight recordings compare to prove a replay recompiled the
// bit-identical injected-event log.
func (s *Schedule) Checksum() (uint32, error) {
	b, err := s.MarshalBinary()
	if err != nil {
		return 0, err
	}
	return recfmt.Checksum(b), nil
}
