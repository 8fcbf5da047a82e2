package flight

import (
	"fmt"
	"strings"

	"cloudfog/internal/experiment"
	"cloudfog/internal/fault"
	"cloudfog/internal/obs"
	"cloudfog/internal/shard"
)

// runOutput is one execution of a spec: everything a recording stores, in
// decoded form. Record wraps it into a Recording; Replay compares it
// against one.
type runOutput struct {
	spec      RunSpec
	worldFP   uint32
	schedules []ScheduleCapture
	figures   []FigureCapture
	final     obs.Snapshot
}

// Record executes the spec and returns the finished recording. The run is
// always instrumented (a fresh obs registry), regardless of whether the
// original invocation asked for a report — the observability deltas are
// part of the witness.
func Record(spec RunSpec) (*Recording, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	out, err := spec.execute("")
	if err != nil {
		return nil, err
	}
	rec := &Recording{
		Version:   Version,
		Spec:      out.spec,
		WorldFP:   out.worldFP,
		Schedules: out.schedules,
		Figures:   out.figures,
		Final:     out.final,
	}
	rec.FinalBytes = appendSnapshot(nil, out.final)
	return rec, nil
}

// Start builds what the spec runs: the world, instrumented by reg (nil
// leaves it uninstrumented), the run options and the figure selection. It
// copies the spec's counts verbatim, so experiment.Config.Validate is the
// only check a count meets. Every run of a spec starts here: the
// simulator's plain and scaling runs, Record, Replay and WhatIf.
func (s RunSpec) Start(reg *obs.Registry) (*experiment.World, experiment.RunOptions, []experiment.Figure, error) {
	opts := experiment.RunOptions{
		Horizon:         s.Horizon,
		Detector:        s.Detector,
		Overload:        s.Overload,
		ScaleEpoch:      s.Epoch,
		ScaleNodeBudget: s.NodeBudget,
	}
	figs, err := experiment.SelectFigures(strings.Join(s.Figures, ","))
	if err != nil {
		return nil, opts, nil, err
	}
	if len(s.FaultProfile) > 0 {
		if opts.Faults, err = fault.Parse(s.FaultProfile); err != nil {
			return nil, opts, nil, err
		}
	}
	cfg := experiment.Default(s.Seed)
	cfg.Players = s.Players
	cfg.Supernodes = s.Supernodes
	cfg.Datacenters = s.Datacenters
	cfg.Shards = s.Shards
	cfg.SweepWorkers = s.SweepWorkers
	if sc := s.BandwidthScale; sc != 0 && sc != 1 {
		cfg.Core.DCEgress = int64(float64(cfg.Core.DCEgress) * sc)
		cfg.Core.UplinkPerSlot = int64(float64(cfg.Core.UplinkPerSlot) * sc)
		cfg.EdgeServerEgress = int64(float64(cfg.EdgeServerEgress) * sc)
	}
	cfg.Obs = reg
	w, err := experiment.NewWorld(cfg)
	return w, opts, figs, err
}

// execute runs the spec's figure selection. A non-empty from starts at the
// named figure — the checkpoint-suffix replay path: figures restore the
// world behind themselves and the obs witness is stored as per-figure
// deltas of monotonic counters, so every recorded figure is independently
// verifiable without re-running its predecessors.
func (s RunSpec) execute(from string) (*runOutput, error) {
	reg := obs.NewRegistry()
	w, opts, figs, err := s.Start(reg)
	if err != nil {
		return nil, err
	}
	if from != "" {
		found := false
		for _, f := range figs {
			if f.Name == from {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("flight: checkpoint figure %q is not in the selection %v", from, s.Figures)
		}
	}
	out := &runOutput{spec: s, worldFP: w.Fingerprint()}
	if out.schedules, err = compileSchedules(w, opts, figs); err != nil {
		return nil, err
	}

	skipping := from != ""
	for _, fig := range figs {
		if skipping && fig.Name == from {
			skipping = false
		}
		if skipping {
			continue
		}
		prev := reg.Snapshot()
		var scaleRes *shard.Result
		opts.ScaleDiag = func(r shard.Result) { scaleRes = &r }
		res, err := fig.Run(w, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", fig.Name, err)
		}
		cap := FigureCapture{
			Name:     fig.Name,
			Fig:      res,
			FigBytes: appendFigure(nil, fig.Name, res),
			ObsDelta: snapshotDelta(prev, reg.Snapshot()),
			RNG:      rngWitness(s, scaleRes),
		}
		cap.ObsBytes = appendSnapshot(nil, cap.ObsDelta)
		out.figures = append(out.figures, cap)
	}
	out.final = reg.Snapshot()
	return out, nil
}

// compileSchedules expands every fault profile the selected figures will
// interpret into its deterministic event schedule and captures the
// versioned binary form. The resilience figures share one profile; the
// sharded scaling figure compiles its own.
func compileSchedules(w *experiment.World, opts experiment.RunOptions, figs []experiment.Figure) ([]ScheduleCapture, error) {
	var out []ScheduleCapture
	add := func(label string, p *fault.Profile) error {
		sched, err := fault.Compile(p, w.FaultTargets())
		if err != nil {
			return fmt.Errorf("flight: compiling %s schedule: %w", label, err)
		}
		b, err := sched.MarshalBinary()
		if err != nil {
			return fmt.Errorf("flight: encoding %s schedule: %w", label, err)
		}
		sum, err := sched.Checksum()
		if err != nil {
			return err
		}
		out = append(out, ScheduleCapture{Label: label, Checksum: sum, Bytes: b})
		return nil
	}
	resilience, scale := false, false
	for _, f := range figs {
		switch f.Name {
		case "figchurn", "figrecovery":
			resilience = true
		case "figscale":
			scale = true
		}
	}
	if resilience {
		if err := add("resilience", experiment.ResilienceProfile(w, opts)); err != nil {
			return nil, err
		}
	}
	if scale {
		if err := add("scale", experiment.ScaleProfile(w, opts)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// rngWitness derives the RNG stream witness of a scaling run: the draws its
// node simulations made, whose streams all split from the run seed, and the
// fog's control-plane stream — the same two counts at any worker count.
// Figures without an epoch-loop data plane record no streams — their RNG use
// is a pure function of the world seed already pinned by the spec.
func rngWitness(s RunSpec, res *shard.Result) []RNGStream {
	if res == nil {
		return nil
	}
	return []RNGStream{
		{Label: "qoe", Seed: s.Seed, Draws: res.QoEDraws},
		// The fog's geolocation stream is minted at seed+200 (World.NewFog).
		{Label: "fog", Seed: s.Seed + 200, Draws: res.FogDraws},
	}
}
