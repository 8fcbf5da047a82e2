package flight

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"

	"cloudfog/internal/obs"
)

// Divergence is one replay mismatch, localized to the stage that produced
// it (world fingerprint, a schedule, a figure's bytes, its obs delta, its
// RNG witness, the final snapshot).
type Divergence struct {
	Stage  string `json:"stage"`
	Detail string `json:"detail"`
}

// ReplayReport is the outcome of re-running a recording.
type ReplayReport struct {
	// From is the checkpoint figure the replay started at ("" = full run).
	From string `json:"from,omitempty"`
	// Checked and Skipped list the figure names verified and bypassed.
	Checked []string `json:"checked"`
	Skipped []string `json:"skipped,omitempty"`
	// Divergences is empty exactly when the replay was bit-identical.
	Divergences []Divergence `json:"divergences,omitempty"`
}

// Identical reports whether the replay reproduced the recording exactly.
func (r *ReplayReport) Identical() bool { return len(r.Divergences) == 0 }

func (r *ReplayReport) add(stage, format string, args ...any) {
	r.Divergences = append(r.Divergences, Divergence{Stage: stage, Detail: fmt.Sprintf(format, args...)})
}

// WriteText prints the report for humans.
func (r *ReplayReport) WriteText(w io.Writer) {
	if r.From != "" {
		fmt.Fprintf(w, "replay from checkpoint %s (skipped: %v)\n", r.From, r.Skipped)
	}
	for _, name := range r.Checked {
		fmt.Fprintf(w, "  verified %s\n", name)
	}
	if r.Identical() {
		fmt.Fprintln(w, "replay: bit-identical")
		return
	}
	fmt.Fprintf(w, "replay: DIVERGED (%d mismatches)\n", len(r.Divergences))
	for _, d := range r.Divergences {
		fmt.Fprintf(w, "  %-12s %s\n", d.Stage+":", d.Detail)
	}
}

// Replay re-executes the recording's spec and compares every witness:
// world fingerprint, compiled schedules, per-figure canonical bytes,
// observability deltas, RNG draw counts, and (for full replays) the final
// cumulative snapshot. A non-empty from starts at that recorded figure —
// the checkpoint path: earlier figures are trusted as already verified and
// only the suffix is re-run. The final-snapshot comparison is skipped for
// checkpoint replays, because the live registry never saw the skipped
// figures' contributions; the per-figure deltas cover the suffix exactly.
func (rec *Recording) Replay(from string) (*ReplayReport, error) {
	rep := &ReplayReport{From: from}
	out, err := rec.Spec.execute(from)
	if err != nil {
		return nil, err
	}
	if out.worldFP != rec.WorldFP {
		rep.add("world", "fingerprint %08x, recorded %08x — the generated world differs; nothing downstream is comparable",
			out.worldFP, rec.WorldFP)
		return rep, nil
	}
	liveSched := map[string]ScheduleCapture{}
	for _, sc := range out.schedules {
		liveSched[sc.Label] = sc
	}
	for _, want := range rec.Schedules {
		got, ok := liveSched[want.Label]
		switch {
		case !ok:
			rep.add("schedule", "%s: recorded but not compiled by the replay", want.Label)
		case got.Checksum != want.Checksum || !bytes.Equal(got.Bytes, want.Bytes):
			rep.add("schedule", "%s: compiled %d bytes (crc %08x), recorded %d bytes (crc %08x)",
				want.Label, len(got.Bytes), got.Checksum, len(want.Bytes), want.Checksum)
		}
		delete(liveSched, want.Label)
	}
	for label := range liveSched {
		rep.add("schedule", "%s: compiled by the replay but absent from the recording", label)
	}

	live := map[string]*FigureCapture{}
	for i := range out.figures {
		live[out.figures[i].Name] = &out.figures[i]
	}
	reached := from == ""
	for i := range rec.Figures {
		want := &rec.Figures[i]
		if !reached && want.Name == from {
			reached = true
		}
		if !reached {
			rep.Skipped = append(rep.Skipped, want.Name)
			continue
		}
		rep.Checked = append(rep.Checked, want.Name)
		got, ok := live[want.Name]
		if !ok {
			rep.add("figure", "%s: recorded but not produced by the replay", want.Name)
			continue
		}
		compareFigure(rep, want, got)
	}
	if from == "" {
		liveFinal := appendSnapshot(nil, out.final)
		if !bytes.Equal(liveFinal, rec.FinalBytes) {
			rep.add("final", "cumulative obs snapshot differs (%s)",
				firstDiff(rec.Final, out.final))
		}
	}
	return rep, nil
}

// compareFigure checks one checkpoint: canonical figure bytes first (the
// headline contract), then the obs delta, then the RNG witness.
func compareFigure(rep *ReplayReport, want, got *FigureCapture) {
	if !bytes.Equal(got.FigBytes, want.FigBytes) {
		// The detail is the first entry the what-if's comparer reports.
		fd := diffFigure(want, got)
		detail := "encodings differ but decoded structs agree (encoding drift)"
		switch {
		case fd.BaseTitle != fd.NewTitle:
			detail = fmt.Sprintf("title %q, recorded %q", fd.NewTitle, fd.BaseTitle)
		case len(fd.Series) > 0 && fd.Series[0].Shape != "":
			detail = fmt.Sprintf("series %q: %s", fd.Series[0].Label, fd.Series[0].Shape)
		case len(fd.Series) > 0:
			p := fd.Series[0].Points[0]
			detail = fmt.Sprintf("series %q at x=%g: live %.17g, recorded %.17g", fd.Series[0].Label, p.X, p.New, p.Base)
		case len(fd.Latency) > 0:
			l := fd.Latency[0]
			detail = fmt.Sprintf("latency %s: live mean/median/p90 %d/%d/%d ns, recorded %d/%d/%d ns",
				l.System, l.NewMean, l.NewMedian, l.NewP90, l.BaseMean, l.BaseMedian, l.BaseP90)
		}
		rep.add("figure", "%s: bytes differ (live %d, recorded %d) — %s",
			want.Name, len(got.FigBytes), len(want.FigBytes), detail)
	}
	if !bytes.Equal(got.ObsBytes, want.ObsBytes) {
		rep.add("obs", "%s: observability delta differs (%s)",
			want.Name, firstDiff(want.ObsDelta, got.ObsDelta))
	}
	if len(got.RNG) != len(want.RNG) {
		rep.add("rng", "%s: %d live streams, %d recorded", want.Name, len(got.RNG), len(want.RNG))
		return
	}
	for i, w := range want.RNG {
		g := got.RNG[i]
		if g != w {
			rep.add("rng", "%s: stream %s live seed=%d draws=%d, recorded seed=%d draws=%d",
				want.Name, w.Label, g.Seed, g.Draws, w.Seed, w.Draws)
		}
	}
}

// SnapshotDelta is one counter or histogram the recorded and the live
// snapshot hold differently, or that only one of them holds.
type SnapshotDelta struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
}

// diffSnapshots walks the counters, then the histograms, of both snapshots
// in name order and returns every entry that differs. An entry one side
// lacks is a difference even when the other holds it at 0; a histogram
// differs in its count, sum, buckets or bounds.
func diffSnapshots(recorded, live obs.Snapshot) []SnapshotDelta {
	var out []SnapshotDelta
	add := func(name, format string, args ...any) {
		out = append(out, SnapshotDelta{Name: name, Detail: fmt.Sprintf(format, args...)})
	}
	for _, n := range unionNames(recorded.Counters, live.Counters) {
		r, inRec := recorded.Counters[n]
		l, inLive := live.Counters[n]
		switch {
		case !inLive:
			add(n, "recorded %d, live absent", r)
		case !inRec:
			add(n, "live %d, recorded absent", l)
		case r != l:
			add(n, "recorded %d, live %d (%+d)", r, l, l-r)
		}
	}
	for _, n := range unionNames(recorded.Histograms, live.Histograms) {
		r, inRec := recorded.Histograms[n]
		l, inLive := live.Histograms[n]
		switch {
		case !inLive:
			add(n, "histogram recorded count %d, live absent", r.Count)
		case !inRec:
			add(n, "histogram live count %d, recorded absent", l.Count)
		case r.Count != l.Count || r.Sum != l.Sum:
			add(n, "histogram recorded count %d sum %d, live count %d sum %d", r.Count, r.Sum, l.Count, l.Sum)
		case !slices.Equal(r.Counts, l.Counts) || !slices.Equal(r.Bounds, l.Bounds):
			add(n, "histogram recorded buckets %v bounds %v, live buckets %v bounds %v", r.Counts, r.Bounds, l.Counts, l.Bounds)
		}
	}
	return out
}

// firstDiff is a replay divergence's detail: the first entry diffSnapshots
// finds between two snapshots whose encodings differ.
func firstDiff(recorded, live obs.Snapshot) string {
	d := diffSnapshots(recorded, live)
	if len(d) == 0 {
		return "encodings differ but decoded snapshots agree (encoding drift)"
	}
	return fmt.Sprintf("first at %s: %s", d[0].Name, d[0].Detail)
}

// unionNames returns the keys of both maps, sorted.
func unionNames[V any](a, b map[string]V) []string {
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	for n := range b {
		if _, ok := a[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}
