package shard

import (
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
	// Horizon is the total virtual time; Epoch the barrier interval.
	Horizon time.Duration
	Epoch   time.Duration
	// Width, Height are read by nothing: they bounded the geographic
	// partition and stay only because bench/ sets them (DESIGN.md §18).
	Width, Height float64
	// Detector selects failure detection: ModeOracle synthesizes detection
	// delays from a pure hash; other modes run one heartbeat monitor on
	// the runner's engine.
	Detector       health.Mode
	DetectorConfig health.DetectorConfig
	// Overload runs the control plane's RelieveOverloaded ladder step at
	// every barrier (after message application).
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

// Sample is one barrier's flow-level census over all players.
type Sample struct {
	T         time.Duration
	Served    int
	FogServed int
	Unserved  int
	Within    int
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
	Repairs        int64
	Lapsed         int64
	CloudHops      int64 // failovers that left the fog for cloud or edge
	Moved          int64 // overload-relief migrations
	PendingEnd     int64 // orphans still awaiting detection at the horizon
	DetectLatency  time.Duration
	// QoEDraws and FogDraws are the flight recorder's RNG witness: the draws
	// the node simulations consumed, summed over the workers' pools (a sum
	// of per-node counts, so it does not depend on who ran which node), and
	// the control-plane geolocation stream's draw count at the end of the
	// run (the fog evolves only at barriers in canonical message order).
	QoEDraws uint64
	FogDraws uint64
}

// MeanDetectionLatency returns the mean kill-to-detection latency.
func (r *Result) MeanDetectionLatency() time.Duration {
	if r.Detections == 0 {
		return 0
	}
	return r.DetectLatency / time.Duration(r.Detections)
}

// Runner executes a scaling run: the control-plane fog advances only at
// epoch barriers; in between, the workers run the epoch's node simulations
// and the monitor its heartbeats, side by side.
type Runner struct {
	cfg     Config
	fog     *core.Fog
	players []*core.Player
	sched   *fault.Schedule
	respawn func(id int64) *core.Supernode
	clk     *Clock

	engine  *sim.Engine     // the monitor's; absolute virtual time
	mon     *health.Monitor // nil in oracle mode
	detects []Msg           // what the monitor found this epoch
	pools   []*qoe.Pool     // one per worker

	// The packet tallies, index-aligned with players. Nothing else needs a
	// player's index — the node tasks carry the indices of the players they
	// simulate.
	onTime []int64
	total  []int64

	nextEvent int // cursor into sched.Events
	downPred  map[int64]bool
	downSince map[int64]time.Duration
	pending   map[int64][]*core.Player
	future    []Msg // oracle detects beyond the current epoch

	res Result
}

// NewRunner builds the runner's machinery. The fog must have been built with
// the Clock's Now as its time source and have the players already joined;
// sched may be nil (fault-free). respawn mints fresh supernode instances for
// recoveries.
func NewRunner(cfg Config, fog *core.Fog, players []*core.Player, sched *fault.Schedule, respawn func(id int64) *core.Supernode, clk *Clock) *Runner {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = cfg.Horizon
	}
	r := &Runner{
		cfg:       cfg,
		fog:       fog,
		players:   players,
		sched:     sched,
		respawn:   respawn,
		clk:       clk,
		engine:    sim.New(),
		pools:     make([]*qoe.Pool, cfg.Shards),
		onTime:    make([]int64, len(players)),
		total:     make([]int64, len(players)),
		downPred:  make(map[int64]bool),
		downSince: make(map[int64]time.Duration),
		pending:   make(map[int64][]*core.Player),
	}
	for i := range r.pools {
		r.pools[i] = qoe.NewPool()
	}
	if cfg.Detector != health.ModeOracle {
		var loss func(time.Duration) float64
		if sched != nil {
			loss = sched.LossFrac
		}
		dc := cfg.DetectorConfig
		dc.Mode = cfg.Detector
		r.mon = health.NewMonitor(r.engine, dc, loss, nil)
		r.mon.OnDetect(func(id int64, now time.Duration) {
			r.detects = append(r.detects, Msg{At: now, Kind: MsgDetect, Node: id})
		})
		// Track in ascending node-ID order: the heartbeat chains' seq order
		// is then a function of the fleet alone.
		for _, sn := range fog.Supernodes() {
			r.mon.Track(sn.ID)
		}
		r.mon.Start()
	}
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
	idx   []int // player indices aligned with specs
}

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
		killsAt, msgs := r.prologue(e, t0, t1)
		tasks := r.buildTasks(killsAt, t0, t1)
		if err := r.runEpoch(e, t0, t1, tasks); err != nil {
			return r.res, err
		}
		r.barrier(e, t1, msgs)
	}
	for _, pend := range r.pending {
		r.res.PendingEnd += int64(len(pend))
	}
	r.summarizeContinuity()
	for _, p := range r.pools {
		r.res.QoEDraws += p.Draws()
	}
	r.res.FogDraws = r.fog.RandDraws()
	return r.res, nil
}

// prologue routes the epoch's fault events: kills and recoveries are
// predicted against the down map (the same accept/skip sequence the barrier
// will apply, so prediction equals truth), the monitor gets the kill and
// recovery signals scheduled at their exact times, and oracle mode
// synthesizes each kill's detection message from a pure hash. Wire ops
// (loss, latency, bandwidth windows) need no routing: they act through the
// schedule's pure impairment lookups.
func (r *Runner) prologue(epoch int, t0, t1 time.Duration) (killsAt map[int64]time.Duration, msgs []Msg) {
	killsAt = make(map[int64]time.Duration)
	if r.sched == nil {
		return killsAt, nil
	}
	for ; r.nextEvent < len(r.sched.Events); r.nextEvent++ {
		ev := r.sched.Events[r.nextEvent]
		if ev.At > t1 {
			break
		}
		switch ev.Op {
		case fault.OpKill:
			if r.downPred[ev.Node] {
				continue // kill of an already-down node is skipped
			}
			r.downPred[ev.Node] = true
			killsAt[ev.Node] = ev.At
			msgs = append(msgs, Msg{Epoch: epoch, At: ev.At, Kind: MsgKill, Node: ev.Node})
			if r.mon != nil {
				node := ev.Node
				r.engine.ScheduleAt(ev.At, func() { r.mon.Kill(node) })
			} else if ev.D > 0 {
				// Oracle: detection at killAt + hash-drawn delay in (0, D].
				h := hash64(uint64(r.cfg.Seed) ^ hash64(uint64(ev.Node)) ^ uint64(ev.At))
				delay := time.Duration(h%uint64(ev.D)) + 1
				r.future = append(r.future, Msg{At: ev.At + delay, Kind: MsgDetect, Node: ev.Node})
			}
		case fault.OpRecover:
			if !r.downPred[ev.Node] {
				continue
			}
			r.downPred[ev.Node] = false
			msgs = append(msgs, Msg{Epoch: epoch, At: ev.At, Kind: MsgRecover, Node: ev.Node})
			if r.mon != nil {
				node := ev.Node
				r.engine.ScheduleAt(ev.At, func() { r.mon.Recover(node) })
			}
		}
	}
	// Oracle detections falling due this epoch join the barrier batch.
	keep := r.future[:0]
	for _, m := range r.future {
		if m.At <= t1 {
			m.Epoch = epoch
			msgs = append(msgs, m)
		} else {
			keep = append(keep, m)
		}
	}
	r.future = keep
	return killsAt, msgs
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
		a := p.Attached
		if a.Kind != core.AttachSupernode {
			continue
		}
		if _, dup := seen[a.SN.ID]; dup {
			continue
		}
		seen[a.SN.ID] = struct{}{}
		dur := t1 - t0
		if killAt, dead := killsAt[a.SN.ID]; dead {
			dur = killAt - t0
		}
		if dur > 0 {
			runs = append(runs, nodeRun{node: a.SN.ID, uplink: a.SN.Uplink, dur: dur})
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
		a := p.Attached
		if a.Kind != core.AttachSupernode {
			continue
		}
		t := taskOf[a.SN.ID]
		if t == nil {
			continue
		}
		levelCap := 0
		if capOf != nil {
			levelCap = capOf(a.SN.ID, p.Game.StartLevel)
		}
		t.specs = append(t.specs, qoe.PlayerSpec{
			ID:           p.ID,
			Game:         p.Game,
			Latency:      a.StreamLatency,
			InboundDelay: a.UpdateLatency,
			LevelCap:     levelCap,
		})
		t.idx = append(t.idx, i)
	}
	return tasks
}

// runEpoch executes one epoch's data plane: the workers share the node
// simulations through qoe.EachNode while, in monitor mode, the heartbeat
// engine runs to the barrier on a goroutine beside them. Packet tallies land
// in per-player slots — disjoint across tasks, because a player is served by
// exactly one node — so the merge is race-free integer addition.
func (r *Runner) runEpoch(epoch int, t0, t1 time.Duration, tasks []nodeTask) error {
	var wg sync.WaitGroup
	if r.mon != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.engine.RunUntil(t1)
		}()
	}
	opts := r.cfg.QoE
	if r.sched != nil {
		opts.Impair = &offsetImpair{base: r.sched, off: t0}
	}
	epochSeed := sim.SplitSeed(r.cfg.Seed, int64(epoch))
	err := qoe.EachNode(r.pools, len(tasks), func(pool *qoe.Pool, k int) error {
		t, o := tasks[k], opts
		o.Seed = sim.SplitSeed(epochSeed, t.node)
		results, err := pool.RunNode(o, t.uplink, t.specs, t.dur)
		for j, pr := range results {
			i := t.idx[j]
			r.onTime[i] += pr.PacketsOnTime
			r.total[i] += pr.PacketsTotal
		}
		return err
	})
	wg.Wait()
	r.res.QoENodeRuns += len(tasks)
	return err
}

// barrier applies the epoch's messages to the control plane in canonical
// order, runs the overload-relief step, advances the clock, and takes the
// flow-level census. Everything here is serial and ordered by message
// content alone, so the fog (and its rng stream) evolves identically at any
// worker count.
func (r *Runner) barrier(epoch int, t1 time.Duration, msgs []Msg) {
	for _, m := range r.detects {
		m.Epoch = epoch
		msgs = append(msgs, m)
	}
	r.detects = r.detects[:0]
	sortMsgs(msgs)
	for _, m := range msgs {
		r.clk.advance(m.At)
		switch m.Kind {
		case MsgKill:
			if _, up := r.fog.Supernode(m.Node); !up {
				continue
			}
			orphans := r.fog.FailSupernode(m.Node)
			r.res.Kills++
			if _, down := r.downSince[m.Node]; !down {
				r.downSince[m.Node] = m.At
			}
			r.pending[m.Node] = append(r.pending[m.Node], orphans...)
		case MsgRecover:
			if _, ok := r.downSince[m.Node]; !ok {
				continue
			}
			delete(r.downSince, m.Node)
			if r.respawn == nil {
				continue
			}
			sn := r.respawn(m.Node)
			if sn == nil {
				continue
			}
			if err := r.fog.RegisterSupernode(sn); err != nil {
				continue
			}
			r.res.Recoveries++
		case MsgDetect:
			r.res.Detections++
			if downAt, ok := r.downSince[m.Node]; ok {
				r.res.DetectLatency += m.At - downAt
			}
			pend := r.pending[m.Node]
			if len(pend) == 0 {
				continue
			}
			delete(r.pending, m.Node)
			for _, p := range pend {
				if !r.fog.Failover(p) {
					r.res.Lapsed++
					continue
				}
				r.res.Repairs++
				if k := p.Attached.Kind; k == core.AttachCloud || k == core.AttachEdge {
					r.res.CloudHops++
				}
			}
		}
	}
	r.clk.advance(t1)
	if r.cfg.Overload && r.fog.Overload() != nil {
		r.res.Moved += int64(r.fog.RelieveOverloaded())
	}
	served, fogN, uns, within := 0, 0, 0, 0
	for _, p := range r.players {
		if !p.Attached.Served() {
			uns++
			continue
		}
		served++
		if p.Attached.Kind == core.AttachSupernode {
			fogN++
		}
		if r.fog.NetworkLatency(p) <= p.Game.NetworkBudget() {
			within++
		}
	}
	r.res.Samples = append(r.res.Samples, Sample{T: t1, Served: served, FogServed: fogN, Unserved: uns, Within: within})
}

// summarizeContinuity folds the per-player integer tallies into the mean
// continuity, in canonical player order.
func (r *Runner) summarizeContinuity() {
	var sum float64
	n := 0
	for i := range r.players {
		if r.total[i] == 0 {
			continue
		}
		sum += float64(r.onTime[i]) / float64(r.total[i])
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
