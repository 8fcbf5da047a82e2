package flight

import (
	"sort"
	"time"

	"cloudfog/internal/experiment"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
	"cloudfog/internal/recfmt"
)

// Canonical encodings. These are the replay comparison units: two runs are
// bit-identical exactly when these byte strings match. Floats are encoded
// as their IEEE-754 bits, so "identical" means identical down to the last
// ulp — the same standard the %#v-based shard-invariance tests enforce.

// appendFigure canonically encodes a figure result under its registry name.
func appendFigure(dst []byte, name string, f experiment.FigureResult) []byte {
	dst = recfmt.AppendString(dst, name)
	dst = recfmt.AppendString(dst, f.Name)
	dst = recfmt.AppendString(dst, f.Title)
	dst = recfmt.AppendString(dst, f.XLabel)
	dst = recfmt.AppendUvarint(dst, uint64(len(f.Series)))
	for _, s := range f.Series {
		dst = recfmt.AppendString(dst, s.Label)
		dst = recfmt.AppendUvarint(dst, uint64(len(s.Points)))
		for _, p := range s.Points {
			dst = recfmt.AppendFloat64(dst, p.X)
			dst = recfmt.AppendFloat64(dst, p.Y)
		}
	}
	dst = recfmt.AppendUvarint(dst, uint64(len(f.Latency)))
	for _, l := range f.Latency {
		dst = recfmt.AppendString(dst, l.System)
		dst = recfmt.AppendVarint(dst, int64(l.Mean))
		dst = recfmt.AppendVarint(dst, int64(l.Median))
		dst = recfmt.AppendVarint(dst, int64(l.P90))
	}
	return dst
}

// decodeFigure reverses appendFigure.
func decodeFigure(payload []byte) (name string, f experiment.FigureResult, err error) {
	r := recfmt.NewReader(payload)
	name = r.String()
	f.Name = r.String()
	f.Title = r.String()
	f.XLabel = r.String()
	if n := r.Count(); n > 0 {
		f.Series = make([]metrics.Series, n)
		for i := range f.Series {
			f.Series[i].Label = r.String()
			np := r.Count()
			if r.Err() != nil {
				break
			}
			f.Series[i].Points = make([]metrics.Point, np)
			for j := range f.Series[i].Points {
				f.Series[i].Points[j].X = r.Float64()
				f.Series[i].Points[j].Y = r.Float64()
			}
		}
	}
	if n := r.Count(); n > 0 {
		f.Latency = make([]experiment.LatencyResult, n)
		for i := range f.Latency {
			f.Latency[i].System = r.String()
			f.Latency[i].Mean = time.Duration(r.Varint())
			f.Latency[i].Median = time.Duration(r.Varint())
			f.Latency[i].P90 = time.Duration(r.Varint())
		}
	}
	return name, f, r.Expect()
}

// appendSnapshot canonically encodes an observability snapshot: counters
// and histograms in sorted name order, so map iteration never leaks into
// the bytes.
func appendSnapshot(dst []byte, s obs.Snapshot) []byte {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	dst = recfmt.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = recfmt.AppendString(dst, n)
		dst = recfmt.AppendVarint(dst, s.Counters[n])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	dst = recfmt.AppendUvarint(dst, uint64(len(hnames)))
	for _, n := range hnames {
		h := s.Histograms[n]
		dst = recfmt.AppendString(dst, n)
		dst = recfmt.AppendUvarint(dst, uint64(len(h.Bounds)))
		for _, b := range h.Bounds {
			dst = recfmt.AppendVarint(dst, b)
		}
		dst = recfmt.AppendUvarint(dst, uint64(len(h.Counts)))
		for _, c := range h.Counts {
			dst = recfmt.AppendVarint(dst, c)
		}
		dst = recfmt.AppendVarint(dst, h.Sum)
		dst = recfmt.AppendVarint(dst, h.Count)
	}
	return dst
}

// decodeSnapshot reverses appendSnapshot.
func decodeSnapshot(payload []byte) (obs.Snapshot, error) {
	r := recfmt.NewReader(payload)
	s := obs.Snapshot{Counters: map[string]int64{}}
	nc := r.Count()
	for i := uint64(0); i < nc && r.Err() == nil; i++ {
		name := r.String()
		s.Counters[name] = r.Varint()
	}
	nh := r.Count()
	if nh > 0 {
		s.Histograms = make(map[string]obs.HistogramSnapshot, nh)
	}
	for i := uint64(0); i < nh && r.Err() == nil; i++ {
		name := r.String()
		var h obs.HistogramSnapshot
		nb := r.Count()
		if r.Err() != nil {
			break
		}
		h.Bounds = make([]int64, nb)
		for j := range h.Bounds {
			h.Bounds[j] = r.Varint()
		}
		nk := r.Count()
		if r.Err() != nil {
			break
		}
		h.Counts = make([]int64, nk)
		for j := range h.Counts {
			h.Counts[j] = r.Varint()
		}
		h.Sum = r.Varint()
		h.Count = r.Varint()
		s.Histograms[name] = h
	}
	return s, r.Expect()
}

// snapshotDelta returns cur − prev, keeping only counters that moved and
// histograms that received observations between the two snapshots. Counters
// are monotonic, so the delta is exactly "what this figure contributed"
// regardless of what ran before it — the property that makes per-figure
// checkpoints verifiable in isolation.
func snapshotDelta(prev, cur obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]int64{}}
	for name, v := range cur.Counters {
		if dv := v - prev.Counters[name]; dv != 0 {
			d.Counters[name] = dv
		}
	}
	for name, h := range cur.Histograms {
		p, ok := prev.Histograms[name]
		if ok && p.Count == h.Count && p.Sum == h.Sum {
			continue
		}
		dh := obs.HistogramSnapshot{
			Bounds: append([]int64(nil), h.Bounds...),
			Counts: append([]int64(nil), h.Counts...),
			Sum:    h.Sum,
			Count:  h.Count,
		}
		if ok {
			for i := range dh.Counts {
				if i < len(p.Counts) {
					dh.Counts[i] -= p.Counts[i]
				}
			}
			dh.Sum -= p.Sum
			dh.Count -= p.Count
		}
		if d.Histograms == nil {
			d.Histograms = map[string]obs.HistogramSnapshot{}
		}
		d.Histograms[name] = dh
	}
	return d
}

// appendRNG encodes the RNG witness streams.
func appendRNG(dst []byte, streams []RNGStream) []byte {
	dst = recfmt.AppendUvarint(dst, uint64(len(streams)))
	for _, s := range streams {
		dst = recfmt.AppendString(dst, s.Label)
		dst = recfmt.AppendVarint(dst, s.Seed)
		dst = recfmt.AppendUvarint(dst, s.Draws)
	}
	return dst
}

func readRNG(r *recfmt.Reader) []RNGStream {
	n := r.Count()
	if n == 0 {
		return nil
	}
	out := make([]RNGStream, n)
	for i := range out {
		out[i].Label = r.String()
		out[i].Seed = r.Varint()
		out[i].Draws = r.Uvarint()
	}
	return out
}
