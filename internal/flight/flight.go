// Package flight is the simulator's flight recorder: a compact, versioned
// binary capture of every nondeterministic input of a run — the launch spec
// (seed, population, infrastructure, figure selection, health apparatus),
// the compiled fault-event schedules the resilience and scaling figures
// interpret, the generated world's fingerprint, and the RNG stream seeds
// and draw counts of the scaling run — together with witness data
// (canonical figure bytes and per-figure observability deltas) that lets a
// later process re-run the recording and prove, byte for byte, that it
// reproduced the original.
//
// The simulator's determinism contract makes this sufficient: every run is
// a pure function of (seed, config), so a recording does not need event-by-
// event logs. It needs the inputs, plus enough digests to localize any
// divergence when the contract is broken (a code change, a different
// platform's math library). Each figure in a recording doubles as a
// checkpoint: because figures restore the world after themselves, a replay
// may start at any recorded figure (Replayer.From) and verify only the
// suffix, skipping the expense of re-proving figures already verified.
//
// The what-if mode re-runs a recording with exactly one knob overridden —
// detector kind, shard count, bandwidth scale, population, … — and emits a
// structured figure-by-figure and counter-by-counter diff against the
// recorded baseline, with both sides' observability ledgers reconciled
// (segments, fault orphans, heartbeat detections) so a counterfactual whose
// accounting does not balance is rejected rather than reported.
//
// On disk a recording is a recfmt stream: the "CFFR" magic and a format
// version, then CRC-protected chunks (spec, world fingerprint, compiled
// schedules, one chunk per figure, final snapshot). Every chunk carries its
// own checksum, so corruption is detected before any comparison runs.
package flight

import (
	"cloudfog/internal/obs"

	"cloudfog/internal/experiment"
)

// Format identity. Version bumps whenever the chunk layout or any canonical
// encoding changes, and a reader decodes its own version only: version 2
// dropped spec fields, so a version 1 spec would not parse as one.
const (
	Magic   = "CFFR"
	Version = 2
)

// Chunk types of the recording stream.
const (
	chunkSpec     = 1 // RunSpec, self-delimiting binary encoding
	chunkWorld    = 2 // world fingerprint (uvarint)
	chunkSchedule = 3 // one compiled fault schedule: label, checksum, bytes
	chunkFigure   = 4 // one figure checkpoint: name, figure bytes, obs delta, RNG witness
	chunkFinal    = 5 // final cumulative observability snapshot
)

// RNGStream is one random stream's witness: the seed it was derived from
// and how many draws the run consumed. A replay that consumes a different
// number of draws has diverged even if the figure bytes happen to agree.
type RNGStream struct {
	Label string `json:"label"`
	Seed  int64  `json:"seed"`
	Draws uint64 `json:"draws"`
}

// ScheduleCapture is one compiled fault-event schedule: the deterministic
// expansion of a fault profile against the world's targets, in the
// versioned binary form fault.Schedule marshals to. The checksum is the
// recfmt CRC of those bytes, letting a replay fail fast on a schedule
// mismatch before interpreting a single event.
type ScheduleCapture struct {
	Label    string
	Checksum uint32
	Bytes    []byte
}

// FigureCapture is one figure's checkpoint: the canonical encoding of its
// FigureResult (the replay comparison unit — identical bytes mean identical
// series down to every float bit), the observability counters the figure
// added to the registry, and the RNG witness of the scaling run when the
// figure is one (figscale).
type FigureCapture struct {
	Name string
	// Fig is the decoded result, for printing and what-if diffing. FigBytes
	// is its canonical encoding; replays compare bytes, never structs.
	Fig      experiment.FigureResult
	FigBytes []byte
	// ObsDelta holds only the counters and histograms this figure changed.
	ObsDelta obs.Snapshot
	ObsBytes []byte
	RNG      []RNGStream
}

// Recording is a decoded flight recording.
type Recording struct {
	Version   uint64
	Spec      RunSpec
	WorldFP   uint32
	Schedules []ScheduleCapture
	Figures   []FigureCapture
	// Final is the cumulative observability snapshot at the end of the run;
	// FinalBytes its canonical encoding. The what-if ledgers reconcile
	// against it.
	Final      obs.Snapshot
	FinalBytes []byte
}

// Figure returns the named figure capture, or nil.
func (r *Recording) Figure(name string) *FigureCapture {
	for i := range r.Figures {
		if r.Figures[i].Name == name {
			return &r.Figures[i]
		}
	}
	return nil
}
