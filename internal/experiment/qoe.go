package experiment

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/metrics"
	"cloudfog/internal/obs"
	"cloudfog/internal/qoe"
	"cloudfog/internal/shard"
	"cloudfog/internal/sim"
	"cloudfog/internal/trace"
)

// nodeStatsFor binds the canonical QoE metrics in the world's registry and
// attaches engine instrumentation. NodeStatsIn is get-or-create, so every
// sweep worker's bundle aliases the same atomic instruments and per-run
// tallies aggregate across the whole figure.
func nodeStatsFor(w *World) *obs.NodeStats {
	ns := obs.NodeStatsIn(w.Cfg.Obs)
	ns.Engine = obs.EngineStatsIn(w.Cfg.Obs)
	return ns
}

// nodeKey identifies a serving node when partitioning players: datacenters
// (cloud and edge attachments share the DC egress) sort before supernodes,
// then by node id. A comparable struct key costs no allocation per player,
// unlike the fmt.Sprintf string keys it replaced.
type nodeKey struct {
	kind uint8 // 0 = datacenter (cloud or edge), 1 = supernode
	id   int64
}

// servingNode names the node that serves an attachment and the uplink its
// players share.
func servingNode(a *core.Attachment) (nodeKey, int64) {
	if a.Kind() == core.AttachSupernode {
		return nodeKey{kind: 1, id: a.SN.ID}, a.SN.Uplink
	}
	return nodeKey{kind: 0, id: a.DC.ID}, a.DC.Egress
}

// nodeGroup is one serving node's share of a groupRun: its players' specs are
// specs[start:start+n] of the world's flat slice, and their results land in
// the same range of the result slice.
type nodeGroup struct {
	key      nodeKey
	uplink   int64
	start, n int
}

// nodeRuns is what back-to-back node simulations on one world reuse, so that
// a figure point pays for its arithmetic and not for rebuilding what the last
// point left behind: the qoe.Pools (sender buffers, session arenas, segment
// sets, one generator each) and groupRun's deal. It belongs to one goroutine
// at a time, like the world's players; Clone drops it.
type nodeRuns struct {
	pools   []*qoe.Pool
	index   map[nodeKey]int
	nodes   []nodeGroup
	specs   []qoe.PlayerSpec
	results []qoe.PlayerResult
}

// nodePools returns n of the world's pools, minting the ones it lacks.
func (w *World) nodePools(n int) []*qoe.Pool {
	for len(w.runs.pools) < n {
		w.runs.pools = append(w.runs.pools, qoe.NewPool())
	}
	return w.runs.pools[:n]
}

// groupRun partitions the joined players by serving node, runs the
// segment-level QoE simulation per node, and aggregates all players. sys may
// be nil; when it is a Fog with the overload ladder installed, supernode-
// attached players inherit their node's current encoding-level cap.
//
// The deal is two passes over the players into storage the world keeps: the
// first finds the serving nodes and counts their players, the nodes are put in
// canonical order (datacenters, then supernodes, by id) and given consecutive
// ranges of one flat spec slice, and the second writes each player's spec at
// its node's next free place — so a node's players stay in join order.
//
// Per-node simulations are pure in (opts, uplink, specs, horizon), so the
// node runs parallelize freely: Cfg.Shards workers (one when unset) share
// them through qoe.EachNode, each run's results copied into the node's own
// range of one result slice — the same bytes at any count.
func groupRun(w *World, sys *core.Fog, players []*core.Player, opts qoe.Options, horizon time.Duration) (qoe.Summary, error) {
	if w.Cfg.Obs != nil && opts.Obs == nil {
		opts.Obs = nodeStatsFor(w)
	}
	var capOf func(snID int64, startLevel int) int
	if sys.Overload() != nil {
		capOf = sys.SupernodeLevelCap
	}
	r := &w.runs
	if r.index == nil {
		r.index = make(map[nodeKey]int)
	}
	clear(r.index)
	nodes, served := r.nodes[:0], 0
	for _, p := range players {
		if !p.Attached.Served() {
			continue
		}
		key, uplink := servingNode(&p.Attached)
		i, seen := r.index[key]
		if !seen {
			i = len(nodes)
			r.index[key] = i
			nodes = append(nodes, nodeGroup{key: key, uplink: uplink})
		}
		nodes[i].n++
		served++
	}
	slices.SortFunc(nodes, func(a, b nodeGroup) int {
		if a.key.kind != b.key.kind {
			return cmp.Compare(a.key.kind, b.key.kind)
		}
		return cmp.Compare(a.key.id, b.key.id)
	})
	// From here on a node's n counts the specs dealt into its range.
	next := 0
	for i := range nodes {
		g := &nodes[i]
		r.index[g.key] = i
		g.start, next = next, next+g.n
		g.n = 0
	}
	specs := slices.Grow(r.specs[:0], served)[:served]
	for _, p := range players {
		a := &p.Attached
		if !a.Served() {
			continue
		}
		key, _ := servingNode(a)
		g := &nodes[r.index[key]]
		specs[g.start+g.n] = shard.PlayerSpec(p, capOf)
		g.n++
	}
	results := slices.Grow(r.results[:0], served)[:served]
	r.nodes, r.specs, r.results = nodes, specs, results

	pools := w.nodePools(min(max(w.Cfg.Shards, 1), len(nodes)))
	err := qoe.EachNode(pools, len(nodes), func(pool *qoe.Pool, i int) error {
		g := nodes[i]
		res, err := pool.RunNode(opts, g.uplink, specs[g.start:g.start+g.n], horizon)
		// Pool results are reused on the next RunNode: copy out.
		copy(results[g.start:], res)
		return err
	})
	if err != nil {
		return qoe.Summary{}, err
	}
	return qoe.Summarize(results), nil
}

// ContinuityVsPlayers reproduces Figure 9(a): average playback continuity
// as the number of concurrent players grows, for Cloud, EdgeCloud,
// CloudFog/B and CloudFog/A. Each point runs the segment-level simulation
// for `horizon` of virtual time on every serving node.
func ContinuityVsPlayers(w *World, counts []int, horizon time.Duration) ([]metrics.Series, error) {
	series := make([]metrics.Series, len(systems))
	for i, sys := range systems {
		series[i].Label = sys.label
		series[i].Points = make([]metrics.Point, len(counts))
	}
	err := w.sweepPoints(len(counts)*len(systems), func(pw *World, pt int) error {
		ci, si := pt/len(systems), pt%len(systems)
		n := counts[ci]
		sys, err := systems[si].build(pw)
		if err != nil {
			return err
		}
		players := pw.JoinAll(sys, n)
		opts := qoe.BasicOptions()
		if systems[si].strategies {
			opts = qoe.DefaultOptions()
		}
		opts.Seed = pw.Cfg.Seed + int64(n)
		sum, err := groupRun(pw, sys, players, opts, horizon)
		if err != nil {
			return err
		}
		series[si].Points[ci] = metrics.Point{X: float64(n), Y: sum.MeanContinuity}
		pw.LeaveAll(sys, players)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return series, nil
}

// SupernodeScenario builds the controlled single-supernode workload of
// Figures 10 and 11: one supernode with a fixed uplink supporting k nearby
// players with realistic fog latencies (probed against the synthetic
// trace) and the supernode's real cloud-update latency as inbound delay.
func (w *World) SupernodeScenario(k int) (uplink int64, specs []qoe.PlayerSpec) {
	// A large supernode: 12 capacity slots at the configured per-slot
	// uplink (30 Mbps by default). The 5..30-player sweep then spans
	// uplink utilization from ~0.15 to ~0.92 — congestion builds from
	// frame-size bursts well before saturation, as in the paper's sweep.
	uplink = 12 * w.Cfg.Core.UplinkPerSlot

	// Pick the supernode with the best cloud-update path: the figure
	// isolates load effects, so the serving node itself should not be
	// latency-handicapped.
	updateOf := func(sp snSpec) time.Duration {
		snEP := trace.Endpoint{ID: trace.NodeID(sp.id), Pos: sp.pos, Class: trace.ClassSupernode}
		best := time.Duration(1<<62 - 1)
		for i := 0; i < w.Cfg.Datacenters && i < len(w.dcPts); i++ {
			dcEP := trace.Endpoint{
				ID:    trace.NodeID(w.dcID(i)),
				Pos:   w.dcPts[i],
				Class: trace.ClassDatacenter,
			}
			if l := w.Cfg.Core.Latency.OneWay(dcEP, snEP); l < best {
				best = l
			}
		}
		return best
	}
	sn := w.snSpec[0]
	inbound := updateOf(sn)
	for _, sp := range w.snSpec[1:] {
		if u := updateOf(sp); u < inbound {
			sn, inbound = sp, u
		}
	}
	snEP := trace.Endpoint{ID: trace.NodeID(sn.id), Pos: sn.pos, Class: trace.ClassSupernode}

	// Rank a geographic candidate pool by probed latency — the same
	// shortlist-then-probe process the assignment protocol uses — and
	// serve the k best. These are the players this supernode would
	// actually support.
	type cand struct {
		idx int
		d   float64
	}
	pool := make([]cand, len(w.Pop.Players))
	for i := range w.Pop.Players {
		pool[i] = cand{i, w.Pop.Players[i].Pos.DistanceTo(sn.pos)}
	}
	sort.Slice(pool, func(a, b int) bool { return pool[a].d < pool[b].d })
	poolSize := 10 * k
	if poolSize > len(pool) {
		poolSize = len(pool)
	}
	type probed struct {
		idx int
		l   time.Duration
	}
	probes := make([]probed, poolSize)
	for i := 0; i < poolSize; i++ {
		p := &w.Pop.Players[pool[i].idx]
		probes[i] = probed{pool[i].idx, w.Cfg.Core.Latency.OneWay(p.Endpoint(), snEP)}
	}
	sort.Slice(probes, func(a, b int) bool { return probes[a].l < probes[b].l })

	rng := sim.NewRand(w.Cfg.Seed + 400)
	if k > len(probes) {
		k = len(probes)
	}
	specs = make([]qoe.PlayerSpec, k)
	for i := 0; i < k; i++ {
		specs[i] = qoe.PlayerSpec{
			ID:           int64(w.Pop.Players[probes[i].idx].ID),
			Game:         *game.Row(uint8(rng.Intn(game.Count) + 1)),
			Latency:      probes[i].l,
			InboundDelay: inbound,
		}
	}
	return uplink, specs
}

// StrategyEffect runs the Figure 10/11 sweep: the fraction of satisfied
// players with and without one strategy, as the players-per-supernode load
// grows. Set adaptation or scheduling (or both) to choose the variant under
// test; the "without" series is always CloudFog/B.
func StrategyEffect(w *World, loads []int, horizon time.Duration, adaptation, scheduling bool) ([]metrics.Series, error) {
	label := "CloudFog-adapt"
	if scheduling && !adaptation {
		label = "CloudFog-schedule"
	}
	if scheduling && adaptation {
		label = "CloudFog/A"
	}
	with := metrics.Series{Label: label, Points: make([]metrics.Point, len(loads))}
	without := metrics.Series{Label: "CloudFog/B", Points: make([]metrics.Point, len(loads))}
	err := w.sweepPoints(len(loads), func(pw *World, i int) error {
		k := loads[i]
		uplink, specs := pw.SupernodeScenario(k)

		opts := qoe.BasicOptions()
		opts.Seed = pw.Cfg.Seed + int64(k)
		if pw.Cfg.Obs != nil {
			opts.Obs = nodeStatsFor(pw)
		}
		// Both runs on the world's pool: resB is read before the second run
		// overwrites it.
		pool := pw.nodePools(1)[0]
		resB, err := pool.RunNode(opts, uplink, specs, horizon)
		if err != nil {
			return err
		}
		without.Points[i] = metrics.Point{X: float64(k), Y: qoe.Summarize(resB).SatisfiedFrac}

		opts.Adaptation = adaptation
		opts.Sched.Deadline = scheduling
		resW, err := pool.RunNode(opts, uplink, specs, horizon)
		if err != nil {
			return err
		}
		with.Points[i] = metrics.Point{X: float64(k), Y: qoe.Summarize(resW).SatisfiedFrac}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []metrics.Series{without, with}, nil
}

// AdaptationEffect reproduces Figure 10(a): satisfied players with and
// without the receiver-driven encoding rate adaptation.
func AdaptationEffect(w *World, loads []int, horizon time.Duration) ([]metrics.Series, error) {
	return StrategyEffect(w, loads, horizon, true, false)
}

// SchedulingEffect reproduces Figure 11(a): satisfied players with and
// without the deadline-driven sender buffer scheduling.
func SchedulingEffect(w *World, loads []int, horizon time.Duration) ([]metrics.Series, error) {
	return StrategyEffect(w, loads, horizon, false, true)
}
