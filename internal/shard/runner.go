package shard

import (
	"slices"
	"sort"
	"sync"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/fault"
	"cloudfog/internal/health"
	"cloudfog/internal/qoe"
	"cloudfog/internal/sim"
)

// Config parameterizes a scaling run.
type Config struct {
	// Shards is how many workers share an epoch's node simulations; 1 runs
	// the identical code path on the calling goroutine (the bit-identity
	// anchor).
	Shards int
	// Seed is the run seed; every epoch and node stream is split from it
	// with sim.SplitSeed.
	Seed int64
	// Horizon is the total virtual time; Epoch the interval between censuses
	// (and between refreshes of the data plane's copy of the attachments).
	Horizon time.Duration
	Epoch   time.Duration
	// Width, Height are read by nothing: they bounded the geographic
	// partition and stay only because bench/ sets them (DESIGN.md §18).
	Width, Height float64
	// Detector selects failure detection: ModeOracle is the injector's
	// per-orphan delay draw; other modes run one heartbeat monitor on the
	// runner's engine.
	Detector       health.Mode
	DetectorConfig health.DetectorConfig
	// Overload runs the control plane's RelieveOverloaded ladder step at
	// the end of every epoch.
	Overload bool
	// QoE configures the per-node segment simulations. Warmup is
	// per-epoch: each epoch is simulated as a fresh session. Seed and
	// Impair are overridden per (epoch, node).
	QoE qoe.Options
	// QoENodeBudget caps how many supernodes run the segment-level QoE
	// simulation per epoch (0 = no cap). Node selection is a pure hash of
	// (seed, epoch, node), so capped runs stay bit-identical across worker
	// counts while bounding the data-plane cost at the million-player
	// scale.
	QoENodeBudget int
}

// Sample is the flow-level census over all players at the end of an epoch.
type Sample struct {
	T time.Duration
	core.Census
}

// Result aggregates a scaling run. Every field but Shards is the same at any
// worker count.
type Result struct {
	Players        int
	Shards         int
	Epochs         int
	Samples        []Sample
	MeanContinuity float64 // over fog players the sampled node sims covered
	QoEPlayers     int     // players with segment-level tallies
	QoENodeRuns    int     // node-epoch simulations executed
	Kills          int64
	Recoveries     int64
	Detections     int64
	Orphaned       int64
	Repairs        int64
	Lapsed         int64
	CloudHops      int64 // failovers that left the fog for cloud or edge
	Moved          int64 // overload-relief migrations
	PendingEnd     int64 // orphans still awaiting detection at the horizon
	MeanDetection  time.Duration
	// QoEDraws and FogDraws are the flight recorder's RNG witness: the draws
	// the node simulations consumed, summed over the workers' pools (a sum
	// of per-node counts, so it does not depend on who ran which node), and
	// the control-plane geolocation stream's draw count at the end of the
	// run (the fog evolves on the engine's one thread).
	QoEDraws uint64
	FogDraws uint64
}

// Runner executes a scaling run: the control plane — injector, monitor and
// the fog they mutate — runs on one engine in continuous virtual time; the
// workers run an epoch's node simulations beside it, on copies.
type Runner struct {
	cfg     Config
	fog     *core.Fog
	players []*core.Player
	sched   *fault.Schedule

	engine *sim.Engine
	inj    *fault.Injector
	pools  []*qoe.Pool // one per worker

	// tallies holds the packet tallies of the players a node simulation has
	// sampled, keyed by index into players: a budgeted run samples a few
	// nodes an epoch, so most players never get one. Nothing else needs a
	// player's index — the node tasks carry the indices of the players they
	// simulate.
	tallies map[int]tally

	nextEvent int // killsUntil's cursor into sched.Events

	res Result
}

// NewRunner builds the runner's machinery and binds clk to its engine. The
// fog must have been built with the Clock's Now as its time source and have
// the players already joined; sched may be nil (fault-free). respawn mints
// fresh supernode instances for recoveries.
func NewRunner(cfg Config, fog *core.Fog, players []*core.Player, sched *fault.Schedule, respawn func(id int64) *core.Supernode, clk *Clock) *Runner {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = cfg.Horizon
	}
	r := &Runner{
		cfg:     cfg,
		fog:     fog,
		players: players,
		sched:   sched,
		engine:  sim.New(),
		pools:   make([]*qoe.Pool, cfg.Shards),
		tallies: make(map[int]tally),
	}
	clk.engine = r.engine
	for i := range r.pools {
		r.pools[i] = qoe.NewPool()
	}
	// The oracle's delay stream is split off below every epoch's (those are
	// keyed 0, 1, …).
	var mon *health.Monitor
	if cfg.Detector != health.ModeOracle {
		var loss func(time.Duration) float64
		if sched != nil {
			loss = sched.LossFrac
		}
		dc := cfg.DetectorConfig
		dc.Mode = cfg.Detector
		mon = health.NewMonitor(r.engine, dc, loss, nil)
	}
	r.inj = fault.StartInjector(sched, r.engine, fog, respawn,
		sim.NewRand(sim.SplitSeed(cfg.Seed, -1)), nil, mon)
	return r
}

// nodeRun is one serving supernode's claim on an epoch's segment simulation:
// pointer-free, because every serving node gets one before the budget cuts.
type nodeRun struct {
	node   int64
	uplink int64
	dur    time.Duration
}

// nodeTask is one supernode's segment-simulation slice of an epoch.
type nodeTask struct {
	nodeRun
	specs []qoe.PlayerSpec
	idx   []int              // player indices aligned with specs
	out   []qoe.PlayerResult // the simulation's results, aligned with specs
}

// tally is one player's continuity-meter packet counts.
type tally struct{ onTime, total int64 }

// Run executes the full horizon and returns the aggregated result.
func (r *Runner) Run() (Result, error) {
	epochs := 0
	for t := time.Duration(0); t < r.cfg.Horizon; t += r.cfg.Epoch {
		epochs++
	}
	r.res.Players = len(r.players)
	r.res.Shards = r.cfg.Shards
	r.res.Epochs = epochs

	for e := 0; e < epochs; e++ {
		t0 := time.Duration(e) * r.cfg.Epoch
		t1 := t0 + r.cfg.Epoch
		if t1 > r.cfg.Horizon {
			t1 = r.cfg.Horizon
		}
		tasks := r.buildTasks(r.killsUntil(t1), t0, t1)
		if err := r.runEpoch(e, t0, t1, tasks); err != nil {
			return r.res, err
		}
		if r.cfg.Overload && r.fog.Overload() != nil {
			r.res.Moved += int64(r.fog.RelieveOverloaded())
		}
		r.res.Samples = append(r.res.Samples, Sample{T: t1, Census: r.fog.Census(r.players)})
	}
	r.res.Kills = r.inj.Killed()
	r.res.Recoveries = r.inj.Recovered()
	r.res.Detections = r.inj.Detected()
	r.res.MeanDetection = r.inj.MeanDetectionLatency()
	r.res.Orphaned = r.inj.Orphaned()
	r.res.Repairs = r.inj.Repaired()
	r.res.Lapsed = r.inj.Lapsed()
	r.res.CloudHops = r.inj.CloudHops()
	r.res.PendingEnd = r.inj.PendingEnd()
	r.summarizeContinuity()
	for _, p := range r.pools {
		r.res.QoEDraws += p.Draws()
	}
	r.res.FogDraws = r.fog.RandDraws()
	return r.res, nil
}

// killsUntil reads ahead over the schedule for the kills an epoch's tasks
// need to know before the engine applies them: each node's first kill in
// (the previous call's t1, t1] — a node with a task is up at t0, so that kill
// lands, and the players the task copied are orphaned then whatever happens
// to the node later in the epoch. Wire ops (loss, latency, bandwidth windows)
// need no reading: they act through the schedule's pure impairment lookups.
func (r *Runner) killsUntil(t1 time.Duration) map[int64]time.Duration {
	killsAt := make(map[int64]time.Duration)
	if r.sched == nil {
		return killsAt
	}
	for ; r.nextEvent < len(r.sched.Events); r.nextEvent++ {
		ev := r.sched.Events[r.nextEvent]
		if ev.At > t1 {
			break
		}
		if _, dead := killsAt[ev.Node]; ev.Op == fault.OpKill && !dead {
			killsAt[ev.Node] = ev.At
		}
	}
	return killsAt
}

// buildTasks selects which serving supernodes run the segment simulation
// this epoch and groups their players under them (canonical player order). A
// node killed mid-epoch serves until its kill time. Cloud- and edge-served
// players are tracked flow-level only. Two passes over the players: the first
// only names the serving nodes, so a player spec is built for a node the
// budget keeps and for no other.
func (r *Runner) buildTasks(killsAt map[int64]time.Duration, t0, t1 time.Duration) []nodeTask {
	seen := make(map[int64]struct{})
	var runs []nodeRun // in first-seen player order
	for _, p := range r.players {
		sn := p.Attached.SN
		if sn == nil {
			continue
		}
		if _, dup := seen[sn.ID]; dup {
			continue
		}
		seen[sn.ID] = struct{}{}
		dur := t1 - t0
		if killAt, dead := killsAt[sn.ID]; dead {
			dur = killAt - t0
		}
		if dur > 0 {
			runs = append(runs, nodeRun{node: sn.ID, uplink: sn.Uplink, dur: dur})
		}
	}
	if b := r.cfg.QoENodeBudget; b > 0 && len(runs) > b {
		// Rank nodes by a pure hash of (seed, epoch, node) and keep the b
		// smallest.
		epoch := int64(t0 / r.cfg.Epoch)
		rank := func(id int64) uint64 {
			return hash64(uint64(sim.SplitSeed(r.cfg.Seed, epoch)) ^ hash64(uint64(id)))
		}
		sortRunsByRank(runs, rank)
		runs = runs[:b]
	}

	var capOf func(snID int64, startLevel int) int
	if r.cfg.Overload && r.fog.Overload() != nil {
		capOf = r.fog.SupernodeLevelCap
	}
	tasks := make([]nodeTask, len(runs))
	taskOf := make(map[int64]*nodeTask, len(runs))
	for i, run := range runs {
		tasks[i].nodeRun = run
		taskOf[run.node] = &tasks[i]
	}
	for i, p := range r.players {
		sn := p.Attached.SN
		if sn == nil {
			continue
		}
		t := taskOf[sn.ID]
		if t == nil {
			continue
		}
		t.specs = append(t.specs, PlayerSpec(p, capOf))
		t.idx = append(t.idx, i)
	}
	return tasks
}

// PlayerSpec is what a node simulation knows of a served player: its game,
// the two latencies of its serving path and, when capOf is set and a
// supernode serves it, the encoding-level cap that node is held to.
func PlayerSpec(p *core.Player, capOf func(snID int64, startLevel int) int) qoe.PlayerSpec {
	a := &p.Attached
	levelCap := 0
	if capOf != nil && a.SN != nil {
		levelCap = capOf(a.SN.ID, p.Game.StartLevel)
	}
	return qoe.PlayerSpec{
		ID:           p.ID,
		Game:         *p.Game,
		Latency:      a.StreamLatency,
		InboundDelay: a.UpdateLatency(),
		LevelCap:     levelCap,
	}
}

// runEpoch executes one epoch: the engine runs the control plane to t1 on a
// goroutine while the workers share the node simulations through
// qoe.EachNode. The two touch nothing in common — tasks are copies, and each
// task's results land in that task's own slice — and once both are done the
// packet tallies are added into the run's, serially.
func (r *Runner) runEpoch(epoch int, t0, t1 time.Duration, tasks []nodeTask) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.engine.RunUntil(t1)
	}()
	opts := r.cfg.QoE
	if r.sched != nil {
		opts.Impair = &offsetImpair{base: r.sched, off: t0}
	}
	epochSeed := sim.SplitSeed(r.cfg.Seed, int64(epoch))
	err := qoe.EachNode(r.pools, len(tasks), func(pool *qoe.Pool, k int) error {
		t, o := &tasks[k], opts
		o.Seed = sim.SplitSeed(epochSeed, t.node)
		results, err := pool.RunNode(o, t.uplink, t.specs, t.dur)
		t.out = slices.Clone(results) // the pool reuses its result slice
		return err
	})
	wg.Wait()
	for _, t := range tasks {
		for j, pr := range t.out {
			c := r.tallies[t.idx[j]]
			r.tallies[t.idx[j]] = tally{c.onTime + pr.PacketsOnTime, c.total + pr.PacketsTotal}
		}
	}
	r.res.QoENodeRuns += len(tasks)
	return err
}

// summarizeContinuity folds the per-player integer tallies into the mean
// continuity, in canonical player order; a player whose simulations counted
// no packet is left out.
func (r *Runner) summarizeContinuity() {
	idx := make([]int, 0, len(r.tallies))
	for i := range r.tallies {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	var sum float64
	n := 0
	for _, i := range idx {
		c := r.tallies[i]
		if c.total == 0 {
			continue
		}
		sum += float64(c.onTime) / float64(c.total)
		n++
	}
	r.res.QoEPlayers = n
	if n > 0 {
		r.res.MeanContinuity = sum / float64(n)
	}
}

// offsetImpair shifts an impairment's time origin: node simulations run an
// epoch in relative time [0, dt), while the schedule's windows live in
// absolute run time.
type offsetImpair struct {
	base qoe.Impairment
	off  time.Duration
}

func (o *offsetImpair) ExtraLatency(now time.Duration) time.Duration {
	return o.base.ExtraLatency(o.off + now)
}
func (o *offsetImpair) LossFrac(now time.Duration) float64 {
	return o.base.LossFrac(o.off + now)
}
func (o *offsetImpair) BandwidthScale(now time.Duration) float64 {
	return o.base.BandwidthScale(o.off + now)
}

// sortRunsByRank orders runs by (hash rank, node id) ascending — a strict
// total order, so the budgeted sample is deterministic.
func sortRunsByRank(runs []nodeRun, rank func(int64) uint64) {
	sort.Slice(runs, func(a, b int) bool {
		ra, rb := rank(runs[a].node), rank(runs[b].node)
		if ra != rb {
			return ra < rb
		}
		return runs[a].node < runs[b].node
	})
}
