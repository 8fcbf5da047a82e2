package shard

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/fault"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/health"
	"cloudfog/internal/qoe"
	"cloudfog/internal/sim"
)

// buildTasksReference is buildTasks as it was while it built a task, specs
// and all, for every serving supernode and only then cut to the budget (PR
// 21): the oracle the two-pass version must agree with task for task.
func buildTasksReference(r *Runner, killsAt map[int64]time.Duration, t0, t1 time.Duration) []nodeTask {
	var capOf func(snID int64, startLevel int) int
	if r.cfg.Overload && r.fog.Overload() != nil {
		capOf = r.fog.SupernodeLevelCap
	}
	byNode := make(map[int64]*nodeTask)
	order := make([]int64, 0, 64)
	for i, p := range r.players {
		a := p.Attached
		if a.Kind() != core.AttachSupernode {
			continue
		}
		t := byNode[a.SN.ID]
		if t == nil {
			dur := t1 - t0
			if killAt, dead := killsAt[a.SN.ID]; dead {
				dur = killAt - t0
			}
			t = &nodeTask{nodeRun: nodeRun{node: a.SN.ID, uplink: a.SN.Uplink, dur: dur}}
			byNode[a.SN.ID] = t
			order = append(order, a.SN.ID)
		}
		levelCap := 0
		if capOf != nil {
			levelCap = capOf(a.SN.ID, p.Game.StartLevel)
		}
		t.specs = append(t.specs, qoe.PlayerSpec{
			ID:           p.ID,
			Game:         *p.Game,
			Latency:      a.StreamLatency,
			InboundDelay: a.UpdateLatency(),
			LevelCap:     levelCap,
		})
		t.idx = append(t.idx, i)
	}
	tasks := make([]nodeTask, 0, len(order))
	for _, id := range order {
		t := byNode[id]
		if t.dur > 0 {
			tasks = append(tasks, *t)
		}
	}
	if b := r.cfg.QoENodeBudget; b > 0 && len(tasks) > b {
		epoch := int64(t0 / r.cfg.Epoch)
		rank := func(id int64) uint64 {
			return hash64(uint64(sim.SplitSeed(r.cfg.Seed, epoch)) ^ hash64(uint64(id)))
		}
		sort.Slice(tasks, func(a, b int) bool {
			ra, rb := rank(tasks[a].node), rank(tasks[b].node)
			if ra != rb {
				return ra < rb
			}
			return tasks[a].node < tasks[b].node
		})
		tasks = tasks[:b]
	}
	return tasks
}

// ladderRunner joins 400 players to a 40-supernode fog with the overload
// ladder on — more players than slots, so some nodes sit on a capped rung and
// some players are served by the cloud — and wraps it in a runner.
func ladderRunner(t *testing.T, budget int) *Runner {
	t.Helper()
	clk := &Clock{}
	cfg := core.DefaultConfig(3)
	ladder, err := health.NewOverload(health.OverloadConfig{}, nil, clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overload, cfg.Now = ladder, clk.Now
	rng := sim.NewRand(11)
	placer := geo.DefaultUSPlacer()
	sns := make([]*core.Supernode, 40)
	for i := range sns {
		capacity := 1 + rng.Intn(8)
		sns[i] = core.NewSupernode(1_000_000+int64(i), placer.Place(rng), capacity, int64(capacity)*cfg.UplinkPerSlot)
	}
	dc := core.NewDatacenter(2_000_000, cfg.Region.Center(), cfg.DCEgress)
	fog, err := core.BuildFog(cfg, []*core.Datacenter{dc}, sns, rng.Fork())
	if err != nil {
		t.Fatal(err)
	}
	players := make([]*core.Player, 400)
	for i := range players {
		g, err := game.ByID(1 + rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		players[i] = &core.Player{ID: int64(i), Pos: placer.Place(rng), Game: &g, Downlink: 20_000_000}
		fog.Join(players[i])
	}
	return NewRunner(Config{
		Shards: 2, Seed: 5, Horizon: 30 * time.Second, Epoch: 10 * time.Second,
		Width: cfg.Region.Width, Height: cfg.Region.Height,
		Overload: true, QoE: qoe.DefaultOptions(), QoENodeBudget: budget,
	}, fog, players, nil, nil, clk)
}

// TestBuildTasksMatchesOnePassReference: the two-pass buildTasks returns the
// one-pass version's tasks — nodes, order, dur, specs, idx — with the budget
// off, below, at and above the number of serving nodes, in two epochs (the
// sample's rank is keyed by epoch), with one serving node killed mid-epoch
// and one killed at the epoch's first instant (it serves for no time at all
// and must not take a place in the sample).
func TestBuildTasksMatchesOnePassReference(t *testing.T) {
	all := buildTasksReference(ladderRunner(t, 0), nil, 0, 10*time.Second)
	serving, capped := len(all), false
	for _, task := range all {
		for _, sp := range task.specs {
			capped = capped || sp.LevelCap > 0
		}
	}
	if serving < 20 || !capped {
		t.Fatalf("%d supernodes serve anyone, a capped level among their players: %v; the world is too quiet to test", serving, capped)
	}
	for _, budget := range []int{0, 1, serving / 2, serving - 1, serving, serving + 5} {
		r := ladderRunner(t, budget)
		var served []int64 // serving nodes, first-seen player order
		seen := map[int64]bool{}
		for _, p := range r.players {
			if a := p.Attached; a.Kind() == core.AttachSupernode && !seen[a.SN.ID] {
				seen[a.SN.ID] = true
				served = append(served, a.SN.ID)
			}
		}
		for epoch := 0; epoch < 2; epoch++ {
			t0 := time.Duration(epoch) * 10 * time.Second
			t1 := t0 + 10*time.Second
			killsAt := map[int64]time.Duration{
				served[1]: t0 + 4*time.Second,
				served[3]: t0,
			}
			want := buildTasksReference(r, killsAt, t0, t1)
			got := r.buildTasks(killsAt, t0, t1)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("budget %d of %d serving, epoch %d: two-pass tasks differ from the one-pass reference\n got: %+v\nwant: %+v",
					budget, serving, epoch, got, want)
			}
			if budget > 0 && budget < serving-1 && len(got) != budget {
				t.Fatalf("budget %d of %d serving: %d tasks", budget, serving, len(got))
			}
			for _, task := range got {
				if task.node == served[3] {
					t.Fatalf("budget %d, epoch %d: a node killed at the epoch's start got a task", budget, epoch)
				}
				if task.node == served[1] && task.dur != 4*time.Second {
					t.Fatalf("budget %d, epoch %d: a node killed 4 s in runs for %v", budget, epoch, task.dur)
				}
			}
		}
	}
}

// TestTaskEndsAtTheFirstDeath: a node killed at 3 s, recovered at 5 s and
// killed again at 8 s of one epoch is simulated for 3 s — the players its
// task copied at t0 were orphaned by the first kill; whoever the fresh
// instance serves from 5 s on is in no task of this epoch.
func TestTaskEndsAtTheFirstDeath(t *testing.T) {
	r := ladderRunner(t, 0)
	var node int64 = -1
	for _, p := range r.players {
		if a := p.Attached; a.Kind() == core.AttachSupernode {
			node = a.SN.ID
			break
		}
	}
	r.sched = &fault.Schedule{Events: []fault.Event{
		{At: 3 * time.Second, Op: fault.OpKill, Node: node, D: time.Second},
		{At: 5 * time.Second, Op: fault.OpRecover, Node: node},
		{At: 8 * time.Second, Op: fault.OpKill, Node: node, D: time.Second},
	}}
	for _, task := range r.buildTasks(r.killsUntil(10*time.Second), 0, 10*time.Second) {
		if task.node == node {
			if task.dur != 3*time.Second {
				t.Fatalf("the node's task runs for %v, want 3s", task.dur)
			}
			return
		}
	}
	t.Fatal("the serving node got no task")
}
