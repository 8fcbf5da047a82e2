package coord

import (
	"context"
	"net"
	"reflect"
	"testing"
	"time"

	"cloudfog/internal/live"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
)

// TestPlacerDrainingWorkerServesNothing pins the one eligibility rule: a
// worker that announced a drain is nobody's destination — not a join's, not
// a backup ring's, not a burial's — so nothing lands on it only to be moved
// off again by the next sweep.
func TestPlacerDrainingWorkerServesNothing(t *testing.T) {
	p := testPlacer(t, "")
	now := time.Second
	p.Register(now, reg(1, 1000, 1000, 8))
	p.Register(now, reg(2, 3000, 1000, 8))
	p.Register(now, reg(3, 9000, 9000, 8))
	// The out-of-band Seq-0 report a SIGTERM'd worker sends.
	p.Report(now, proto.Report{Worker: 1, Capacity: 8, Draining: 1})

	tk, ok := p.Place(now, proto.Place{Player: 100, X: 1000, Y: 1000})
	if !ok || tk.Worker != 2 {
		t.Fatalf("join beside the draining worker: ok=%v worker=%d, want the next nearest, 2", ok, tk.Worker)
	}
	if reps := p.Sweep(now); len(reps) != 0 {
		t.Fatalf("the sweep after that join moved sessions: %+v", reps)
	}
	tk, ok = p.Place(now, proto.Place{Player: 101, X: 3000, Y: 1000})
	if !ok || tk.Worker != 2 {
		t.Fatalf("second join: ok=%v worker=%d, want 2", ok, tk.Worker)
	}
	if ringHas(tk.Backups, addrOf(1)) || !ringHas(tk.Backups, addrOf(3)) {
		t.Fatalf("backup ring %v, want worker 3 and never the draining worker 1", tk.Backups)
	}
	reps := p.Deregister(now, 2)
	if len(reps) != 2 {
		t.Fatalf("burying worker 2 re-placed %d sessions, want 2", len(reps))
	}
	for _, r := range reps {
		if r.Dropped || r.Ticket.Worker != 3 {
			t.Fatalf("burial sent player %d to worker %d (dropped=%v), want 3", r.Player, r.Ticket.Worker, r.Dropped)
		}
	}
	l := p.Ledger()
	if l.TicketsIssued != 4 || l.DrainSessions != 0 || !l.Balanced() {
		t.Fatalf("2 placements + 2 burial moves should be 4 tickets and no drain move: %+v", l)
	}
}

// churnScript drives one fixed register / place / report / bury / return /
// drain / renew / expire sequence whose burial leaves the survivors two
// seats short, and returns every churn outcome in the order it was produced.
func churnScript(t *testing.T, p *Placer) []Replacement {
	t.Helper()
	now := time.Second
	at := [4][2]float64{{}, {1000, 1000}, {2000, 1000}, {1000, 2000}}
	for id := int64(1); id <= 3; id++ {
		p.Register(now, reg(id, at[id][0], at[id][1], 4))
	}
	// Players 100–103 on worker 1, 110–112 on worker 2, 120–122 on worker 3.
	for w, n := range []int64{0, 4, 3, 3} {
		for i := int64(0); i < n; i++ {
			id := 90 + 10*int64(w) + i
			if tk, ok := p.Place(now, proto.Place{Player: id, X: at[w][0], Y: at[w][1]}); !ok || tk.Worker != int64(w) {
				t.Fatalf("player %d: ok=%v worker=%d, want worker %d", id, ok, tk.Worker, w)
			}
		}
	}
	var seq uint64
	report := func(loads map[int64]int32, draining int64) {
		seq++
		for id := int64(1); id <= 3; id++ {
			r := proto.Report{Worker: id, Seq: seq, Load: loads[id], Capacity: 4}
			if id == draining {
				r.Draining = 1
			}
			p.Report(now, r)
		}
	}
	report(map[int64]int32{1: 4, 2: 3, 3: 3}, 0)

	// Worker 1 dies with four sessions; workers 2 and 3 have one seat each.
	out := p.Deregister(now, 1)
	// It comes back empty, and worker 2 announces a drain: three of its four
	// sessions fit on worker 1 before one more would hit the migration
	// threshold, the fourth is stranded.
	p.Register(now, reg(1, at[1][0], at[1][1], 4))
	report(map[int64]int32{1: 0, 2: 4, 3: 4}, 2)
	out = append(out, p.Sweep(now)...)

	// Worker 3's sessions renew at half-life; everyone else lets the lease
	// lapse a full TTL past expiry.
	now += 500 * time.Millisecond
	report(map[int64]int32{1: 3, 2: 1, 3: 4}, 2)
	for _, id := range []int64{122, 120, 121, 101} {
		if _, ok := p.Renew(now, id); !ok {
			t.Fatalf("renewal for player %d refused", id)
		}
	}
	now = 3 * time.Second
	report(map[int64]int32{1: 3, 2: 1, 3: 4}, 2)
	return append(out, p.Sweep(now)...)
}

func scriptPlacer(t *testing.T, stats *obs.CoordStats) *Placer {
	t.Helper()
	p, err := NewPlacer(PlacerConfig{
		Detector: testDetector, TicketKey: []byte("k"), LeaseTTL: time.Second, Stats: stats,
	})
	if err != nil {
		t.Fatalf("NewPlacer: %v", err)
	}
	return p
}

// TestPlacerIsDeterministic runs the scripted sequence twenty times: the
// outcomes — player, worker, epoch, signature, dropped, expired, in order —
// must be identical every time, and when survivors cannot seat everyone the
// sessions dropped are the newest attachments.
func TestPlacerIsDeterministic(t *testing.T) {
	first := churnScript(t, scriptPlacer(t, nil))
	type move struct {
		player, worker   int64
		dropped, expired bool
	}
	var got []move
	for _, r := range first {
		got = append(got, move{r.Player, r.Ticket.Worker, r.Dropped, r.Expired})
	}
	want := []move{
		// Burial, oldest first: worker 2 (nearer) takes 100, worker 3 takes
		// 101, and the two newest attachments have nowhere to go.
		{100, 2, false, false}, {101, 3, false, false}, {102, 0, true, false}, {103, 0, true, false},
		// Drain of worker 2, newest first: 100 arrived last and leaves first.
		{100, 1, false, false}, {112, 1, false, false}, {111, 1, false, false},
		// Lease expiry, oldest attachment first.
		{110, 0, false, true}, {100, 0, false, true}, {112, 0, false, true}, {111, 0, false, true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scripted outcomes\n got %+v\nwant %+v", got, want)
	}
	for run := 2; run <= 20; run++ {
		if again := churnScript(t, scriptPlacer(t, nil)); !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d differs from run 1:\n got %+v\nwant %+v", run, again, first)
		}
	}
}

// TestPlacerLedgerIsTheMetrics pins "the counters are the ledger": after the
// scripted sequence every Ledger counter equals its cloudfog_coord_* sample
// and, once the remaining sessions depart, both reconciliation identities
// hold from the registry snapshot alone.
func TestPlacerLedgerIsTheMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p := scriptPlacer(t, obs.CoordStatsIn(reg))
	churnScript(t, p)
	for _, id := range []int64{101, 120, 121, 122} {
		if !p.Depart(id) {
			t.Fatalf("player %d should still be in session", id)
		}
	}
	l := p.Ledger()
	if l.ActiveOriginal+l.ActiveReplaced != 0 || !l.Balanced() {
		t.Fatalf("ledger after everyone left: %+v", l)
	}
	m := reg.Snapshot().Counters
	for name, want := range map[string]uint64{
		"placements": l.Placements, "replacements": l.Replacements, "tickets_issued": l.TicketsIssued,
		"rejected_joins": l.Rejected, "departed": l.Departed,
		"lease_renewed": l.Renewals, "lease_expired": l.Expired,
		"drain_workers": l.DrainWorkers, "drain_sessions": l.DrainSessions, "drain_stranded": l.DrainStranded,
		"rebases": l.Rebases, "reconciled": l.Reconciled,
		"workers_registered": l.WorkersRegistered, "workers_lost": l.WorkersLost, "workers_returned": l.WorkersReturned,
	} {
		got, ok := m["cloudfog_coord_"+name+"_total"]
		if !ok || uint64(got) != want {
			t.Errorf("cloudfog_coord_%s_total = %d (registered: %v), ledger says %d", name, got, ok, want)
		}
	}
	c := func(name string) int64 { return m["cloudfog_coord_"+name+"_total"] }
	if c("placements") == 0 || c("placements") != c("departed")+c("lease_expired") {
		t.Errorf("session identity fails on the scrape: placements %d, departed %d, expired %d",
			c("placements"), c("departed"), c("lease_expired"))
	}
	if c("tickets_issued") != c("placements")+c("replacements")+c("lease_renewed") {
		t.Errorf("ticket identity fails on the scrape: issued %d, placements %d, replacements %d, renewals %d",
			c("tickets_issued"), c("placements"), c("replacements"), c("lease_renewed"))
	}
}

func testCloud(t *testing.T) *live.Cloud {
	t.Helper()
	cloud, err := live.NewCloud(live.Config{
		Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: 20 * time.Millisecond, FPS: 10,
	})
	if err != nil {
		t.Fatalf("cloud: %v", err)
	}
	t.Cleanup(cloud.Close)
	return cloud
}

// TestWorkerGateDefaultSkewTolerance builds the worker the way deployments
// do, through StartWorker with skew_tolerance omitted: the documented default
// must apply, forgiving a 100ms lapse and refusing a 2s one. The coordinator
// is a stand-in whose clock already reads ten seconds, so a ticket can have
// lapsed two of them.
func TestWorkerGateDefaultSkewTolerance(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		link := live.NewLinkOpts(conn, live.LinkOptions{})
		defer link.Close()
		began := time.Now()
		for {
			if _, _, err := link.Recv(); err != nil {
				return
			}
			now := 10*time.Second + time.Since(began)
			link.Send(proto.TSync, proto.AppendSync(nil, proto.Sync{Now: int64(now), LeaseTTL: int64(time.Second)}))
		}
	}()
	w, err := StartWorker(live.Config{
		Role: live.RoleSupernode, ID: 3, Addr: "127.0.0.1:0",
		CloudAddr: testCloud(t).Addr(), CoordAddr: ln.Addr().String(), TicketKey: "gate-key",
		FPS: 30, Capacity: 8, ReportEvery: 10 * time.Millisecond, Detector: testDetector,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	defer w.Close()
	for deadline := time.Now().Add(5 * time.Second); w.LeaseTTL() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never learned the lease TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, tc := range []struct {
		lapse time.Duration
		want  uint32
	}{{100 * time.Millisecond, proto.AckOK}, {2 * time.Second, proto.AckExpired}} {
		join := proto.JoinStream{Player: 42, Ticket: ticketFor(w, "gate-key", 42, -tc.lapse)}
		if got := w.gate(join, false); got != tc.want {
			t.Errorf("ticket lapsed %v with skew_tolerance omitted: gate = %d, want %d", tc.lapse, got, tc.want)
		}
	}
}

// TestRekeyedJoinSurvivesRingFailover kills the serving worker several
// lease TTLs into a session: the renewals must have re-keyed the player's
// join, so the backup admits the ring failover at once instead of refusing an
// expired ticket and leaving the stream dark until the detector catches up.
func TestRekeyedJoinSurvivesRingFailover(t *testing.T) {
	cloud := testCloud(t)
	c, err := StartCoordinator(live.Config{
		Role: live.RoleCoordinator, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(),
		TicketKey: "lease-key", Detector: testDetector, LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	defer c.Close()
	var workers [3]*Worker
	for id := int64(1); id <= 2; id++ {
		w, err := StartWorker(live.Config{
			Role: live.RoleSupernode, ID: id, Addr: "127.0.0.1:0",
			CloudAddr: cloud.Addr(), CoordAddr: c.Addr(), TicketKey: "lease-key",
			FPS: 30, X: float64(1000 * id), Y: 5000, Capacity: 8,
			ReportEvery: 50 * time.Millisecond, Detector: testDetector,
		})
		if err != nil {
			t.Fatalf("worker %d: %v", id, err)
		}
		defer w.Close()
		workers[id] = w
	}
	// The backup must be enforcing leases before the session starts.
	for deadline := time.Now().Add(5 * time.Second); c.WorkersAlive() < 2 || workers[2].LeaseTTL() == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d/2 workers registered, backup lease TTL %v", c.WorkersAlive(), workers[2].LeaseTTL())
		}
		time.Sleep(5 * time.Millisecond)
	}
	s, err := OpenSession(context.Background(), live.Config{
		Role: live.RolePlayer, ID: 900, GameID: 1,
		CloudAddr: cloud.Addr(), CoordAddr: c.Addr(), TicketKey: "lease-key",
		X: 1000, Y: 5000,
	})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer s.Close()
	first := s.Ticket()
	if first.Worker != 1 || !ringHas(first.Backups, workers[2].Addr()) {
		t.Fatalf("ticket %+v, want worker 1 backed by worker 2", first)
	}
	done := make(chan live.PlayerReport, 1)
	go func() {
		rep, err := s.Run(1500 * time.Millisecond)
		if err != nil {
			t.Errorf("player run: %v", err)
		}
		done <- rep
	}()
	// Well past the first ticket's expiry plus any skew tolerance.
	time.Sleep(900 * time.Millisecond)
	if s.Ticket().Epoch == first.Epoch {
		t.Fatal("no renewal reached the session in three TTLs")
	}
	workers[1].Close()
	rep := <-done
	if rep.Failovers != 1 || rep.CloudFallback || len(rep.FailoverErrors) != 0 {
		t.Fatalf("failovers %d, cloud fallback %v, errors %v; want one clean ring failover",
			rep.Failovers, rep.CloudFallback, rep.FailoverErrors)
	}
	if rep.Segments == 0 {
		t.Fatal("no segments streamed")
	}
}
