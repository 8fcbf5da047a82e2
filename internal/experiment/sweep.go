package experiment

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cloudfog/internal/core"
)

// Clone returns a world whose players are fresh copies of this world's, in
// one allocation, so a sweep worker can join and leave them without touching
// any other worker's state. Immutable data — the config, infrastructure
// placements, supernode specs, the game table — is shared; per-player runtime
// state (Online, Attached) is reset to the never-joined state, and a
// copied Game points at the read-only row it did until the clone's joins
// re-point it. The node-run pools and groupRun's scratch are per goroutine, so
// a clone starts without any.
func (w *World) Clone() *World {
	cw := *w
	cw.runs = nodeRuns{}
	pop := *w.Pop
	pop.Players = slices.Clone(w.Pop.Players)
	for i := range pop.Players {
		p := &pop.Players[i]
		p.Online = false
		p.GameID = 0
		p.Attached = core.Attachment{}
	}
	cw.Pop = &pop
	return &cw
}

// sweepWorkers resolves the configured pool size: 0 means one worker per
// available CPU, 1 forces the serial path.
func (w *World) sweepWorkers() int {
	if n := w.Cfg.SweepWorkers; n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// sweepPoints evaluates fn for every point index 0..n-1 on a bounded
// worker pool. Each worker owns a private clone of the world, so the
// per-point work (mint a system, join players, measure, leave) runs with
// no shared mutable state; results must be written into per-index slots of
// preallocated slices, never appended.
//
// Every figure sweep derives each point's randomness from (Cfg.Seed, point
// parameters) alone — fresh systems are built with fixed seed offsets and
// joins re-seed at Seed+300 — so a point's value is a pure function of the
// world spec and the point index, and the assembled series are identical
// to the serial output regardless of how goroutines interleave. With one
// worker (or one point) the sweep runs on the original world itself, which
// is exactly the pre-harness serial behavior.
func (w *World) sweepPoints(n int, fn func(pw *World, i int) error) error {
	workers := w.sweepWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw := w.Clone()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(pw, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
