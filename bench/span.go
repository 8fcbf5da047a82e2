package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one, or -1 for an
// operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) duration() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs skip the cost.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its ID for children to name as parent.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON, creating the directory if needed.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// childCover returns, per span ID, how much of the span's interval its
// direct children cover: the union of their intervals clipped to the parent,
// so overlapping children are not counted twice.
func childCover(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	cover := make(map[int]int64, len(kids))
	for id, ks := range kids {
		p := byID[id]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		var total int64
		edge := p.Start
		for _, k := range ks {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				total += hi - lo
				edge = hi
			}
		}
		cover[id] = total
	}
	return cover
}

// selfTimes returns each span's self time: its duration minus the part of
// that interval its child spans cover.
func selfTimes(spans []span) map[int]int64 {
	cover := childCover(spans)
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.duration() - cover[s.ID]
	}
	return self
}

// harnessSpan reports whether a span times the benchmark's own code (the
// generator's lateness, a probe's write) and not a layer of the system.
func harnessSpan(s span) bool {
	return strings.HasPrefix(s.Name, "bench.") || strings.HasPrefix(s.Name, "probe.")
}

// coverage is the share of the operations' wall time (the root spans) that
// layer spans account for; the harness's own spans do not count.
func coverage(spans []span) float64 {
	layer := make([]span, 0, len(spans))
	for _, s := range spans {
		if !harnessSpan(s) {
			layer = append(layer, s)
		}
	}
	cover := childCover(layer)
	var covered, total int64
	for _, s := range spans {
		if s.Parent < 0 {
			covered += cover[s.ID]
			total += s.duration()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
