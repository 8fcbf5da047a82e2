package coord

import (
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

// leasePlacer builds a placer with leases on and phi detection, registered
// with workers at the given positions (IDs 1..n).
func leasePlacer(t *testing.T, ttl time.Duration, pos ...[2]float64) *Placer {
	t.Helper()
	p, err := NewPlacer(PlacerConfig{
		Detector: health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond},
		LeaseTTL: ttl,
	})
	if err != nil {
		t.Fatalf("placer: %v", err)
	}
	for i, xy := range pos {
		p.Register(time.Second, proto.Register{
			Worker: int64(i + 1), Capacity: 16,
			X: xy[0], Y: xy[1],
			Addr: "w:" + string(rune('1'+i)),
		})
	}
	return p
}

// beat heartbeats every worker at now so a Sweep exercises only the lease
// pass, not worker burial.
func beat(p *Placer, now time.Duration, seq uint64, workers int) {
	for id := 1; id <= workers; id++ {
		p.Report(now, proto.Report{Worker: int64(id), Seq: seq, Load: 0, Capacity: 16})
	}
}

// TestLeaseExpiryAtBoundary pins the retirement instant: a session whose
// lease lapsed is retired exactly when now reaches expiry + TTL (one full
// TTL of grace past the stamped expiry), not a nanosecond sooner.
func TestLeaseExpiryAtBoundary(t *testing.T) {
	const ttl = time.Second
	p := leasePlacer(t, ttl, [2]float64{1000, 1000})
	now := time.Second
	tk, ok := p.Place(now, proto.Place{Player: 7, X: 1000, Y: 1000})
	if !ok {
		t.Fatal("place failed")
	}
	if tk.Expiry != int64(now+ttl) {
		t.Fatalf("ticket expiry %d, want %d (now + TTL)", tk.Expiry, int64(now+ttl))
	}
	boundary := now + 2*ttl // expiry + one full TTL of grace

	beat(p, boundary-time.Nanosecond, 1, 1)
	if reps := p.Sweep(boundary - time.Nanosecond); len(reps) != 0 {
		t.Fatalf("session retired %v before the boundary: %+v", time.Nanosecond, reps)
	}

	beat(p, boundary, 2, 1)
	reps := p.Sweep(boundary)
	if len(reps) != 1 || !reps[0].Expired || reps[0].Player != 7 {
		t.Fatalf("want exactly one Expired replacement for player 7 at the boundary, got %+v", reps)
	}
	if _, ok := p.Renew(boundary, 7); ok {
		t.Fatal("renewal of a retired session must fail")
	}
	l := p.Ledger()
	if l.Expired != 1 || !l.Balanced() {
		t.Fatalf("ledger after expiry: %+v", l)
	}
}

// TestLeaseRenewalAtBoundary shows a renewal landing a nanosecond before the
// retirement boundary keeps the session alive a further TTL.
func TestLeaseRenewalAtBoundary(t *testing.T) {
	const ttl = time.Second
	p := leasePlacer(t, ttl, [2]float64{1000, 1000})
	now := time.Second
	if _, ok := p.Place(now, proto.Place{Player: 9, X: 1000, Y: 1000}); !ok {
		t.Fatal("place failed")
	}
	boundary := now + 2*ttl
	renewAt := boundary - time.Nanosecond
	rn, ok := p.Renew(renewAt, 9)
	if !ok {
		t.Fatal("renewal before the boundary must succeed")
	}
	if rn.Expiry != int64(renewAt+ttl) {
		t.Fatalf("renewed expiry %d, want %d", rn.Expiry, int64(renewAt+ttl))
	}
	// The old boundary passes harmlessly; the new one holds.
	beat(p, boundary, 1, 1)
	if reps := p.Sweep(boundary); len(reps) != 0 {
		t.Fatalf("renewed session retired at the old boundary: %+v", reps)
	}
	beat(p, renewAt+2*ttl, 2, 1)
	if reps := p.Sweep(renewAt + 2*ttl); len(reps) != 1 || !reps[0].Expired {
		t.Fatalf("renewed session not retired at its new boundary: %+v", reps)
	}
}

// TestRenewalRacingDrainReplacement is the freshest-epoch-wins race: a
// renewal arriving after a drain-issued replacement re-leases the session on
// its post-drain worker with a strictly newer epoch, so the player applying
// highest-epoch-wins converges on the drain target no matter the arrival
// order.
func TestRenewalRacingDrainReplacement(t *testing.T) {
	p := leasePlacer(t, time.Second, [2]float64{1000, 1000}, [2]float64{2000, 1000})
	now := time.Second
	t0, ok := p.Place(now, proto.Place{Player: 5, X: 1000, Y: 1000})
	if !ok || t0.Worker != 1 {
		t.Fatalf("place: ok=%v worker=%d, want worker 1", ok, t0.Worker)
	}
	// Worker 1 announces a drain; the sweep issues a replacement onto 2.
	p.Report(now, proto.Report{Worker: 1, Seq: 1, Load: 1, Capacity: 16, Draining: 1})
	p.Report(now, proto.Report{Worker: 2, Seq: 1, Load: 0, Capacity: 16})
	reps := p.Sweep(now)
	if len(reps) != 1 || reps[0].Ticket.Worker != 2 {
		t.Fatalf("want one drain replacement onto worker 2, got %+v", reps)
	}
	rep := reps[0].Ticket
	if rep.Epoch <= t0.Epoch {
		t.Fatalf("replacement epoch %d does not supersede %d", rep.Epoch, t0.Epoch)
	}
	// The player's half-life renewal was already in flight; it lands after
	// the replacement and must not resurrect worker 1.
	rn, ok := p.Renew(now+10*time.Millisecond, 5)
	if !ok {
		t.Fatal("renewal failed")
	}
	if rn.Worker != 2 {
		t.Fatalf("renewal re-leased worker %d, want the drain target 2", rn.Worker)
	}
	if rn.Epoch <= rep.Epoch {
		t.Fatalf("renewal epoch %d does not supersede the replacement's %d", rn.Epoch, rep.Epoch)
	}
	l := p.Ledger()
	if !l.Balanced() || l.DrainSessions != 1 || l.Renewals != 1 {
		t.Fatalf("ledger: %+v", l)
	}
}

// TestPlacerDrainNewestFirst checks the RelieveOverloaded discipline: a full
// drain hands sessions off newest attachment first.
func TestPlacerDrainNewestFirst(t *testing.T) {
	p := leasePlacer(t, 0, [2]float64{1000, 1000}, [2]float64{9000, 1000})
	now := time.Second
	for i := int64(0); i < 4; i++ {
		if _, ok := p.Place(now, proto.Place{Player: 100 + i, X: 1000, Y: 1000}); !ok {
			t.Fatalf("place %d failed", i)
		}
	}
	p.Report(now, proto.Report{Worker: 1, Seq: 1, Load: 4, Capacity: 16, Draining: 1})
	p.Report(now, proto.Report{Worker: 2, Seq: 1, Load: 0, Capacity: 16})
	reps := p.Sweep(now)
	if len(reps) != 4 {
		t.Fatalf("want 4 drain replacements, got %d", len(reps))
	}
	for i, want := range []int64{103, 102, 101, 100} {
		if reps[i].Player != want {
			t.Fatalf("drain order %v, want newest-first [103 102 101 100]",
				[]int64{reps[0].Player, reps[1].Player, reps[2].Player, reps[3].Player})
		}
		if reps[i].Ticket.Worker != 2 {
			t.Fatalf("player %d drained onto worker %d, want 2", reps[i].Player, reps[i].Ticket.Worker)
		}
	}
	l := p.Ledger()
	if l.DrainWorkers != 1 || l.DrainSessions != 4 || !l.Balanced() {
		t.Fatalf("ledger: %+v", l)
	}
}

// gateWorker builds a bare Worker for exercising the join gate directly:
// synced against a coordinator 5s ahead of local time, leases on, tickets
// signed under key. The supernode is never touched because every test ticket
// names the worker by ID.
func gateWorker(key string, tol time.Duration) *Worker {
	w := &Worker{
		cfg: live.Config{
			ID: 3, TicketKey: key, SkewTolerance: tol,
		},
		start:    time.Now(),
		coordDet: health.NewDetector(health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond}),
		skew:     int64(5 * time.Second),
		synced:   true,
		leaseTTL: time.Second,
	}
	w.coordDet.Reset(w.lnow())
	return w
}

// ticketFor signs a ticket for player 42 on worker 3 whose expiry sits
// offset away from the worker's current estimate of the coordinator clock.
func ticketFor(w *Worker, key string, player int64, offset time.Duration) []byte {
	skew, _ := w.Skew()
	t := proto.Ticket{
		Player: player, Worker: 3, Epoch: 1,
		Expiry: int64(w.lnow() + skew + offset),
	}
	SignTicket([]byte(key), &t)
	return proto.MarshalTicket(t)
}

// TestWorkerGateSkewTolerance drives the lease gate across the skew window:
// expiries are judged on the coordinator's estimated clock, slack by
// SkewTolerance in the player's favor, so a worker whose clock drifted
// within tolerance never bounces a freshly-issued ticket.
func TestWorkerGateSkewTolerance(t *testing.T) {
	const key = "gate-key"
	w := gateWorker(key, 200*time.Millisecond)

	cases := []struct {
		name   string
		offset time.Duration // ticket expiry minus estimated coordinator now
		want   uint32
	}{
		{"fresh ticket", time.Second, proto.AckOK},
		{"lapsed within tolerance", -100 * time.Millisecond, proto.AckOK},
		{"lapsed beyond tolerance", -2 * time.Second, proto.AckExpired},
	}
	for _, tc := range cases {
		join := proto.JoinStream{Player: 42, Ticket: ticketFor(w, key, 42, tc.offset)}
		if got := w.gate(join, false); got != tc.want {
			t.Errorf("%s: gate = %d, want %d", tc.name, got, tc.want)
		}
	}

	// A known player bypasses every check: lease expiry never interrupts a
	// session already being served.
	expired := proto.JoinStream{Player: 42, Ticket: ticketFor(w, key, 42, -time.Minute)}
	if got := w.gate(expired, true); got != proto.AckOK {
		t.Errorf("known player refused: gate = %d", got)
	}
	// A ticket issued to someone else is refused outright.
	stolen := proto.JoinStream{Player: 43, Ticket: ticketFor(w, key, 42, time.Second)}
	if got := w.gate(stolen, false); got != proto.AckRefused {
		t.Errorf("player-mismatched ticket: gate = %d, want AckRefused", got)
	}
	// A forged signature is refused.
	forged := proto.JoinStream{Player: 42, Ticket: ticketFor(w, "wrong-key", 42, time.Second)}
	if got := w.gate(forged, false); got != proto.AckRefused {
		t.Errorf("forged ticket: gate = %d, want AckRefused", got)
	}
}

// TestWorkerGateSafeMode: a worker whose coordinator detector has fired
// refuses unknown players with AckSafeMode but keeps serving known ones.
func TestWorkerGateSafeMode(t *testing.T) {
	w := gateWorker("k", 0)
	// A millisecond-interval detector fires after ~6ms of silence.
	w.coordDet = health.NewDetector(health.DetectorConfig{Mode: health.ModePhi, Interval: time.Millisecond})
	w.coordDet.Reset(w.lnow())
	deadline := time.Now().Add(2 * time.Second)
	for !w.SafeMode() {
		if time.Now().After(deadline) {
			t.Fatal("detector never fired on coordinator silence")
		}
		time.Sleep(2 * time.Millisecond)
	}
	join := proto.JoinStream{Player: 42, Ticket: ticketFor(w, "k", 42, time.Second)}
	if got := w.gate(join, false); got != proto.AckSafeMode {
		t.Errorf("unknown player in safe mode: gate = %d, want AckSafeMode", got)
	}
	if got := w.gate(join, true); got != proto.AckOK {
		t.Errorf("known player in safe mode: gate = %d, want AckOK", got)
	}
}
