package flight

import (
	"fmt"
	"os"

	"cloudfog/internal/recfmt"
)

// Encode serializes the recording into the CFFR chunk stream.
func Encode(rec *Recording) []byte {
	out := recfmt.AppendHeader(nil, Magic, Version)
	out = recfmt.AppendChunk(out, chunkSpec, appendSpec(nil, rec.Spec))
	out = recfmt.AppendChunk(out, chunkWorld, recfmt.AppendUvarint(nil, uint64(rec.WorldFP)))
	for _, sc := range rec.Schedules {
		var p []byte
		p = recfmt.AppendString(p, sc.Label)
		p = recfmt.AppendUvarint(p, uint64(sc.Checksum))
		p = recfmt.AppendBytes(p, sc.Bytes)
		out = recfmt.AppendChunk(out, chunkSchedule, p)
	}
	for _, fc := range rec.Figures {
		var p []byte
		p = recfmt.AppendString(p, fc.Name)
		p = recfmt.AppendBytes(p, fc.FigBytes)
		p = recfmt.AppendBytes(p, fc.ObsBytes)
		p = appendRNG(p, fc.RNG)
		out = recfmt.AppendChunk(out, chunkFigure, p)
	}
	fin := rec.FinalBytes
	if fin == nil {
		fin = appendSnapshot(nil, rec.Final)
	}
	return recfmt.AppendChunk(out, chunkFinal, fin)
}

// Decode parses a CFFR chunk stream, verifying the header, every chunk
// CRC, and each captured schedule's own header and checksum. Only the
// current Version is read. Unknown chunk types are an error — the format has
// no optional chunks, so an unrecognized type means corruption.
func Decode(data []byte) (*Recording, error) {
	version, rest, err := recfmt.CheckHeader(data, Magic, Version)
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, fmt.Errorf("flight: format version %d is not read by this build (version %d only): re-record it; make record-corpus regenerates the committed corpus",
			version, Version)
	}
	rec := &Recording{Version: version}
	seenSpec, seenWorld, seenFinal := false, false, false
	for {
		typ, payload, next, done, err := recfmt.NextChunk(rest)
		if err != nil {
			return nil, fmt.Errorf("flight: %w", err)
		}
		if done {
			break
		}
		rest = next
		switch typ {
		case chunkSpec:
			if seenSpec {
				return nil, fmt.Errorf("flight: duplicate spec chunk")
			}
			seenSpec = true
			if rec.Spec, err = decodeSpec(payload); err != nil {
				return nil, err
			}
		case chunkWorld:
			if seenWorld {
				return nil, fmt.Errorf("flight: duplicate world chunk")
			}
			seenWorld = true
			r := recfmt.NewReader(payload)
			rec.WorldFP = uint32(r.Uvarint())
			if err := r.Expect(); err != nil {
				return nil, err
			}
		case chunkSchedule:
			r := recfmt.NewReader(payload)
			sc := ScheduleCapture{Label: r.String()}
			sc.Checksum = uint32(r.Uvarint())
			sc.Bytes = append([]byte(nil), r.Bytes()...)
			if err := r.Expect(); err != nil {
				return nil, err
			}
			if got := recfmt.Checksum(sc.Bytes); got != sc.Checksum {
				return nil, fmt.Errorf("flight: schedule %q checksum mismatch (stored %08x, computed %08x)",
					sc.Label, sc.Checksum, got)
			}
			rec.Schedules = append(rec.Schedules, sc)
		case chunkFigure:
			r := recfmt.NewReader(payload)
			fc := FigureCapture{Name: r.String()}
			fc.FigBytes = append([]byte(nil), r.Bytes()...)
			fc.ObsBytes = append([]byte(nil), r.Bytes()...)
			fc.RNG = readRNG(r)
			if err := r.Expect(); err != nil {
				return nil, err
			}
			name, fig, err := decodeFigure(fc.FigBytes)
			if err != nil {
				return nil, fmt.Errorf("flight: figure %q: %w", fc.Name, err)
			}
			if name != fc.Name {
				return nil, fmt.Errorf("flight: figure chunk %q wraps encoding of %q", fc.Name, name)
			}
			fc.Fig = fig
			if fc.ObsDelta, err = decodeSnapshot(fc.ObsBytes); err != nil {
				return nil, fmt.Errorf("flight: figure %q obs delta: %w", fc.Name, err)
			}
			rec.Figures = append(rec.Figures, fc)
		case chunkFinal:
			if seenFinal {
				return nil, fmt.Errorf("flight: duplicate final chunk")
			}
			seenFinal = true
			rec.FinalBytes = append([]byte(nil), payload...)
			if rec.Final, err = decodeSnapshot(payload); err != nil {
				return nil, fmt.Errorf("flight: final snapshot: %w", err)
			}
		default:
			return nil, fmt.Errorf("flight: unknown chunk type %d", typ)
		}
	}
	if !seenSpec {
		return nil, fmt.Errorf("flight: recording has no spec chunk")
	}
	if !seenWorld {
		return nil, fmt.Errorf("flight: recording has no world chunk")
	}
	if !seenFinal {
		return nil, fmt.Errorf("flight: recording has no final snapshot chunk")
	}
	return rec, nil
}

// Save writes the recording to path.
func Save(path string, rec *Recording) error {
	return os.WriteFile(path, Encode(rec), 0o644)
}

// Load reads and decodes a recording file.
func Load(path string) (*Recording, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}
