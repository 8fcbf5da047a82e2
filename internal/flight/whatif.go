package flight

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cloudfog/internal/experiment"
)

// PointDelta is one changed series point: same x, different y.
type PointDelta struct {
	X    float64 `json:"x"`
	Base float64 `json:"base"`
	New  float64 `json:"new"`
}

// SeriesDelta is one series' changed points.
type SeriesDelta struct {
	Label string `json:"label"`
	// Shape notes a structural difference (point count, missing series);
	// empty when the series differ only in values.
	Shape  string       `json:"shape,omitempty"`
	Points []PointDelta `json:"points,omitempty"`
}

// LatencyDelta is one changed Figure 8 latency row, in nanoseconds.
type LatencyDelta struct {
	System     string `json:"system"`
	BaseMean   int64  `json:"base_mean_ns"`
	NewMean    int64  `json:"new_mean_ns"`
	BaseMedian int64  `json:"base_median_ns"`
	NewMedian  int64  `json:"new_median_ns"`
	BaseP90    int64  `json:"base_p90_ns"`
	NewP90     int64  `json:"new_p90_ns"`
}

// FigureDiff is one figure's QoE-by-QoE comparison.
type FigureDiff struct {
	Name      string `json:"name"`
	Identical bool   `json:"identical"`
	// Title notes a caption change (captions carry run tallies — kill
	// counts, detection means — so a changed title is itself a finding).
	BaseTitle string         `json:"base_title,omitempty"`
	NewTitle  string         `json:"new_title,omitempty"`
	Series    []SeriesDelta  `json:"series,omitempty"`
	Latency   []LatencyDelta `json:"latency,omitempty"`
}

// Diff is the structured outcome of a what-if replay: the recorded
// baseline against the same run with exactly one knob overridden. Both
// sides' ledgers are reconciled before the diff is returned.
type Diff struct {
	Knob  string `json:"knob"`
	Value string `json:"value"`

	BaseSpec string `json:"base_spec"`
	NewSpec  string `json:"new_spec"`

	Figures []FigureDiff `json:"figures"`
	// Snapshot lists every counter and histogram whose end-of-run state
	// moved: the recorded side is the baseline, the live side the re-run.
	Snapshot []SnapshotDelta `json:"snapshot,omitempty"`

	BaseLedgers Ledgers `json:"base_ledgers"`
	NewLedgers  Ledgers `json:"new_ledgers"`
}

// Empty reports whether the override changed nothing observable: every
// figure byte-identical and every counter and histogram unchanged.
func (d *Diff) Empty() bool {
	for _, f := range d.Figures {
		if !f.Identical {
			return false
		}
	}
	return len(d.Snapshot) == 0
}

// WhatIf re-runs the recording with one knob overridden and returns the
// structured diff against the recorded baseline. The baseline side comes
// entirely from the recording — it is never re-run — so the diff is
// grounded in the bytes that were actually captured, and both the recorded
// and the counterfactual ledgers must reconcile.
func (rec *Recording) WhatIf(key, value string) (*Diff, error) {
	if value == "" {
		key, value, _ = strings.Cut(key, "=")
	}
	spec, err := rec.Spec.Override(key, value)
	if err != nil {
		return nil, err
	}
	out, err := spec.execute("")
	if err != nil {
		return nil, fmt.Errorf("flight: what-if run: %w", err)
	}
	d := &Diff{
		Knob:        key,
		Value:       value,
		BaseSpec:    rec.Spec.Summary(),
		NewSpec:     spec.Summary(),
		BaseLedgers: Reconcile(rec.Final),
		NewLedgers:  Reconcile(out.final),
	}
	if err := d.BaseLedgers.Err(); err != nil {
		return nil, fmt.Errorf("flight: recorded baseline: %w", err)
	}
	if err := d.NewLedgers.Err(); err != nil {
		return nil, fmt.Errorf("flight: what-if run: %w", err)
	}

	live := map[string]*FigureCapture{}
	for i := range out.figures {
		live[out.figures[i].Name] = &out.figures[i]
	}
	for i := range rec.Figures {
		base := &rec.Figures[i]
		got, ok := live[base.Name]
		if !ok {
			d.Figures = append(d.Figures, FigureDiff{Name: base.Name,
				BaseTitle: title(base), NewTitle: "(not produced)"})
			continue
		}
		d.Figures = append(d.Figures, diffFigure(base, got))
	}
	d.Snapshot = diffSnapshots(rec.Final, out.final)
	return d, nil
}

func title(c *FigureCapture) string {
	if c.Fig.Title != "" {
		return c.Fig.Title
	}
	return c.Name
}

// diffFigure compares one figure pair point by point: the what-if's diff,
// and the detail of a replay's figure divergence.
func diffFigure(base, got *FigureCapture) FigureDiff {
	fd := FigureDiff{Name: base.Name, Identical: bytes.Equal(base.FigBytes, got.FigBytes)}
	if fd.Identical {
		return fd
	}
	a, b := base.Fig, got.Fig
	if a.Title != b.Title {
		fd.BaseTitle, fd.NewTitle = a.Title, b.Title
	}
	bs := map[string]int{}
	for i, s := range b.Series {
		bs[s.Label] = i
	}
	for _, s := range a.Series {
		j, ok := bs[s.Label]
		if !ok {
			fd.Series = append(fd.Series, SeriesDelta{Label: s.Label, Shape: "absent from the re-run"})
			continue
		}
		delete(bs, s.Label)
		ns := b.Series[j]
		sd := SeriesDelta{Label: s.Label}
		if len(s.Points) != len(ns.Points) {
			sd.Shape = fmt.Sprintf("%d points vs %d", len(s.Points), len(ns.Points))
		}
		n := len(s.Points)
		if len(ns.Points) < n {
			n = len(ns.Points)
		}
		for i := 0; i < n; i++ {
			if s.Points[i] != ns.Points[i] {
				sd.Points = append(sd.Points, PointDelta{X: s.Points[i].X, Base: s.Points[i].Y, New: ns.Points[i].Y})
			}
		}
		if sd.Shape != "" || len(sd.Points) > 0 {
			fd.Series = append(fd.Series, sd)
		}
	}
	for label := range bs {
		fd.Series = append(fd.Series, SeriesDelta{Label: label, Shape: "only in the re-run"})
	}
	sort.Slice(fd.Series, func(i, j int) bool { return fd.Series[i].Label < fd.Series[j].Label })

	bl := map[string]experiment.LatencyResult{}
	for _, l := range b.Latency {
		bl[l.System] = l
	}
	for _, l := range a.Latency {
		nl, ok := bl[l.System]
		if !ok || nl == l {
			continue
		}
		fd.Latency = append(fd.Latency, LatencyDelta{
			System:   l.System,
			BaseMean: int64(l.Mean), NewMean: int64(nl.Mean),
			BaseMedian: int64(l.Median), NewMedian: int64(nl.Median),
			BaseP90: int64(l.P90), NewP90: int64(nl.P90),
		})
	}
	return fd
}

// WriteText prints the diff for humans: the overridden knob, each figure's
// changed points, and the moved counters and histograms, with both ledgers'
// verdicts.
func (d *Diff) WriteText(w io.Writer) {
	fmt.Fprintf(w, "what-if %s=%s\n", d.Knob, d.Value)
	fmt.Fprintf(w, "  base: %s\n  new:  %s\n", d.BaseSpec, d.NewSpec)
	if d.Empty() {
		fmt.Fprintln(w, "no observable difference: every figure byte-identical, every counter and histogram unchanged")
		return
	}
	for _, f := range d.Figures {
		if f.Identical {
			fmt.Fprintf(w, "%s: identical\n", f.Name)
			continue
		}
		fmt.Fprintf(w, "%s:\n", f.Name)
		if f.NewTitle != "" && f.NewTitle != f.BaseTitle {
			fmt.Fprintf(w, "  title: %s\n     ->  %s\n", f.BaseTitle, f.NewTitle)
		}
		for _, s := range f.Series {
			if s.Shape != "" {
				fmt.Fprintf(w, "  %s: %s\n", s.Label, s.Shape)
			}
			for _, p := range s.Points {
				fmt.Fprintf(w, "  %s @ %g: %.6g -> %.6g (%+.6g)\n", s.Label, p.X, p.Base, p.New, p.New-p.Base)
			}
		}
		for _, l := range f.Latency {
			fmt.Fprintf(w, "  %s: mean %v -> %v, median %v -> %v, p90 %v -> %v\n", l.System,
				nsDur(l.BaseMean), nsDur(l.NewMean), nsDur(l.BaseMedian), nsDur(l.NewMedian),
				nsDur(l.BaseP90), nsDur(l.NewP90))
		}
	}
	if len(d.Snapshot) > 0 {
		fmt.Fprintf(w, "counters and histograms (%d moved):\n", len(d.Snapshot))
		for _, e := range d.Snapshot {
			fmt.Fprintf(w, "  %-48s %s\n", e.Name, e.Detail)
		}
	}
	fmt.Fprintf(w, "ledgers: base %s, what-if %s\n", ledgerVerdict(d.BaseLedgers), ledgerVerdict(d.NewLedgers))
}

func nsDur(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }

func ledgerVerdict(l Ledgers) string {
	if err := l.Err(); err != nil {
		return "UNBALANCED"
	}
	parts := "segments balanced"
	if l.Faults != nil {
		parts += ", orphans balanced"
	}
	if l.Health != nil {
		parts += ", detections balanced"
	}
	return parts
}
