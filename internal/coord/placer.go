package coord

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/spatial"
)

// Placer defaults, used when the corresponding PlacerConfig field is zero.
const (
	// DefaultShortlistK is how many nearest candidates a placement ranks.
	DefaultShortlistK = 4
	// DefaultBackups is the backup-ring size baked into tickets.
	DefaultBackups = 2
	// defaultPlane matches world.DefaultConfig()'s 10,000² bounds.
	defaultPlane = 10_000
)

// PlacerConfig parameterizes the placement state machine.
type PlacerConfig struct {
	// Width, Height bound the plane workers and players live on (zero
	// means the default 10,000² world).
	Width, Height float64
	// ShortlistK is the nearest-worker candidate count per placement;
	// Backups is the ring size baked into each ticket.
	ShortlistK int
	Backups    int
	// Detector configures the per-worker failure detector fed by report
	// arrivals.
	Detector health.DetectorConfig
	// Overload configures the admission ladder (zero means defaults).
	Overload health.OverloadConfig
	// TicketKey signs issued tickets (empty disables signing).
	TicketKey []byte
	// CloudAddr, when non-empty, is the cloud's direct-stream address: a
	// placement with no admitting worker falls back to it instead of
	// rejecting, and a re-placement with no surviving worker migrates there
	// instead of dropping the session.
	CloudAddr string
	// LeaseTTL, when positive, turns tickets into leases: every issued
	// ticket expires LeaseTTL after issue (signed into the HMAC body), and
	// Sweep retires sessions whose lease has lapsed a full TTL past expiry
	// without renewal. Zero disables leases.
	LeaseTTL time.Duration
	// Stats holds the counters that are the placer's ledger — each event is
	// counted once, there, and Ledger reads them back. Nil means a bundle in
	// a private registry; pass obs.CoordStatsIn(reg) to have /metrics show
	// the same numbers.
	Stats *obs.CoordStats
}

// Replacement is one churn outcome from Sweep, Deregister, or Register
// reconciliation: a fresh ticket for the player (pushed over its control
// link), a dropped session (no surviving worker and no cloud fallback), or an
// expired lease (the player never renewed and the session is retired).
type Replacement struct {
	Player  int64
	Ticket  proto.Ticket
	Dropped bool
	// Expired marks a session retired because its lease lapsed a full TTL
	// past expiry without renewal — no ticket accompanies it; the
	// coordinator reclaims the player's control link instead.
	Expired bool
}

// Ledger is the placer's session accounting. The reconciliation identities —
// checked by Balanced — are
//
//	Placements    == ActiveOriginal + ActiveReplaced + Departed + Expired
//	TicketsIssued == Placements + Replacements + Renewals
//
// Rejected joins never enter the ledger; Replacements counts ticket
// re-issues, not sessions (a twice-moved session is one ActiveReplaced).
type Ledger struct {
	Placements     uint64 `json:"placements"`
	Replacements   uint64 `json:"replacements"`
	Renewals       uint64 `json:"renewals"`
	TicketsIssued  uint64 `json:"tickets_issued"`
	Rejected       uint64 `json:"rejected"`
	Departed       uint64 `json:"departed"`
	Expired        uint64 `json:"expired"`
	ActiveOriginal uint64 `json:"active_original"`
	ActiveReplaced uint64 `json:"active_replaced"`

	// Drain accounting: episodes started, sessions moved, and sessions that
	// stayed in place because no ladder-admissible target existed.
	DrainWorkers  uint64 `json:"drain_workers"`
	DrainSessions uint64 `json:"drain_sessions"`
	DrainStranded uint64 `json:"drain_stranded"`

	// Partition accounting: coordinator pause recoveries and sessions
	// realigned against worker-reported live-session lists.
	Rebases    uint64 `json:"rebases"`
	Reconciled uint64 `json:"reconciled"`

	WorkersAlive      int    `json:"workers_alive"`
	WorkersRegistered uint64 `json:"workers_registered"`
	WorkersLost       uint64 `json:"workers_lost"`
	WorkersReturned   uint64 `json:"workers_returned"`
}

// Balanced reports whether both ledger identities hold.
func (l Ledger) Balanced() bool {
	return l.Placements == l.ActiveOriginal+l.ActiveReplaced+l.Departed+l.Expired &&
		l.TicketsIssued == l.Placements+l.Replacements+l.Renewals
}

type workerState struct {
	id       int64
	reg      proto.Register
	det      *health.Detector
	alive    bool
	load     int
	capacity int
	lastSeq  uint64
	// level is the worker's self-reported overload-ladder state; draining
	// marks a worker that asked for a full handoff (SIGTERM). drainCounted
	// dedupes the per-episode DrainWorkers counter.
	level        health.OverloadState
	draining     bool
	drainCounted bool
}

// distressed reports whether the worker wants sessions moved off it: a full
// drain request, or a self-reported ladder level at Shedding or beyond.
func (w *workerState) distressed() bool {
	return w.draining || w.level >= health.StateShedding
}

type sessionState struct {
	place    proto.Place
	worker   int64 // zero: cloud-direct
	epoch    uint64
	replaced bool
	// attachSeq is the session's most recent attachment, unique across the
	// placer: the one order a worker's sessions are walked in.
	attachSeq uint64
	// expiry is the session's current lease deadline (zero without leases).
	expiry time.Duration
}

// Placer is the coordinator's placement state machine: worker liveness and
// occupancy, the spatial shortlist, the overload admission ladder, and the
// session ledger. It is a passive value fed explicit timestamps — no clocks,
// no goroutines — and a deterministic function of its inputs: workers are
// walked in first-registration order, a worker's sessions in attachment
// order, never in map order. Not safe for concurrent use; the Coordinator
// serializes access.
type Placer struct {
	cfg   PlacerConfig
	stats *obs.CoordStats
	// olCfg is the defaulted overload config, consulted directly when drain
	// admissibility needs thresholds (WouldMigrate, partial-drain target).
	olCfg   health.OverloadConfig
	grid    *spatial.Grid
	ladder  *health.Overload
	workers map[int64]*workerState
	order   []*workerState // first-registration order
	// sessions maps player → session; sessionsOn scans it per worker (worker
	// counts stay small next to session counts).
	sessions  map[int64]*sessionState
	epoch     uint64
	attachSeq uint64
	// serves is the one shortlist filter, bound once; leaving is its
	// per-query argument (the worker the session is moving off, or zero).
	serves      func(id int64) bool
	leaving     int64
	scratch     []spatial.Neighbor
	sessScratch []*sessionState
}

// NewPlacer builds a placement state machine; zero config fields default.
func NewPlacer(cfg PlacerConfig) (*Placer, error) {
	if cfg.Width <= 0 {
		cfg.Width = defaultPlane
	}
	if cfg.Height <= 0 {
		cfg.Height = defaultPlane
	}
	if cfg.ShortlistK <= 0 {
		cfg.ShortlistK = DefaultShortlistK
	}
	if cfg.Backups < 0 {
		return nil, fmt.Errorf("coord: PlacerConfig.Backups %d is negative", cfg.Backups)
	}
	if cfg.Backups == 0 {
		cfg.Backups = DefaultBackups
	}
	stats := cfg.Stats
	if stats == nil {
		stats = obs.CoordStatsIn(obs.NewRegistry())
	}
	ladder, err := health.NewOverload(cfg.Overload, nil, nil)
	if err != nil {
		return nil, err
	}
	olCfg := cfg.Overload
	if olCfg == (health.OverloadConfig{}) {
		olCfg = health.DefaultOverloadConfig()
	}
	p := &Placer{
		cfg:      cfg,
		stats:    stats,
		olCfg:    olCfg,
		grid:     spatial.NewGrid(cfg.Width, cfg.Height),
		ladder:   ladder,
		workers:  make(map[int64]*workerState),
		sessions: make(map[int64]*sessionState),
	}
	// A worker serves a session iff it is alive, has not announced a drain,
	// and is not the worker the session is leaving.
	p.serves = func(id int64) bool {
		w := p.workers[id]
		return w != nil && w.alive && !w.draining && id != p.leaving
	}
	return p, nil
}

// Bound returns the provable worker-death detection latency: no session
// ticket points at a dead worker longer than this after the worker's last
// report, provided Sweep runs at least every Detector.CheckEvery.
func (p *Placer) Bound() time.Duration { return p.cfg.Detector.Bound() }

// Register admits (or re-admits) a worker at now. Returned reports whether
// this was a dead worker coming back. When the register carries the worker's
// live-session list (a reconnect after a partition), the placer reconciles:
// any session it maps to this worker that the worker no longer serves is
// re-placed and its fresh ticket returned for pushing. Sessions the worker
// reports but the placer doesn't map are left to worker-side lease expiry.
func (p *Placer) Register(now time.Duration, r proto.Register) (returned bool, reps []Replacement) {
	w := p.workers[r.Worker]
	preexisting := w != nil && w.alive
	if w == nil {
		w = &workerState{id: r.Worker, det: health.NewDetector(p.cfg.Detector)}
		p.workers[r.Worker] = w
		p.order = append(p.order, w)
		p.stats.WorkersRegistered.Inc()
	} else if !w.alive {
		returned = true
		p.stats.WorkersReturned.Inc()
	}
	w.reg = r
	w.alive = true
	w.load = int(r.Load)
	w.capacity = int(r.Capacity)
	w.lastSeq = 0
	w.level = health.StateNormal
	w.draining = false
	w.drainCounted = false
	w.det.Reset(now)
	p.grid.Insert(r.Worker, r.X, r.Y)
	p.ladder.Observe(r.Worker, w.load, w.capacity)
	if preexisting || returned {
		reps = p.reconcile(now, r.Worker, r.Sessions)
	}
	return returned, reps
}

// reconcile realigns the placer's session map against a reconnecting
// worker's reported live sessions: any player the placer maps here that the
// worker dropped (its lease lapsed during the partition, or it never heard
// the placement) is re-placed — possibly back onto the same worker, since
// the retarget push is what re-aligns the player either way.
func (p *Placer) reconcile(now time.Duration, worker int64, live []int64) []Replacement {
	serving := make(map[int64]struct{}, len(live))
	for _, pid := range live {
		serving[pid] = struct{}{}
	}
	var out []Replacement
	for _, s := range p.sessionsOn(worker) {
		if _, ok := serving[s.place.Player]; ok {
			continue
		}
		// The register's load already excludes dropped sessions, so no
		// detach here — only the new attachment is counted.
		to, ok := p.choose(s.place.X, s.place.Y, 0)
		if ok {
			p.stats.Reconciled.Inc()
		}
		out = append(out, p.move(now, s, to, ok))
	}
	return out
}

// Report consumes a worker's periodic occupancy beacon: the arrival gap
// feeds the failure detector, the load ratio moves the admission ladder.
// Reports from unknown or dead workers — and stale out-of-order datagrams —
// are dropped (a dead worker must re-register to rejoin the pool).
func (p *Placer) Report(now time.Duration, r proto.Report) bool {
	w := p.workers[r.Worker]
	if w == nil || !w.alive {
		return false
	}
	if r.Seq != 0 && r.Seq <= w.lastSeq {
		return false
	}
	w.lastSeq = r.Seq
	w.det.Heartbeat(now)
	w.load = int(r.Load)
	if r.Capacity > 0 {
		w.capacity = int(r.Capacity)
	}
	w.level = health.OverloadState(r.Level)
	w.draining = r.Draining != 0
	if !w.distressed() {
		w.drainCounted = false
	}
	p.ladder.Observe(r.Worker, w.load, w.capacity)
	p.stats.ReportsReceived.Inc()
	return true
}

// Place answers a join: the nearest serving worker below Rejecting, a ring of
// the next backup-eligible ones, and a signed ticket. With no admitting
// worker the session falls back to the cloud's direct stream when configured,
// otherwise the join is rejected (ok=false). A repeated Place for a live
// session re-issues its current ticket (counted as a renewal so the ticket
// identity stays balanced).
func (p *Placer) Place(now time.Duration, req proto.Place) (proto.Ticket, bool) {
	if t, ok := p.Renew(now, req.Player); ok {
		return t, true
	}
	wid, ok := p.choose(req.X, req.Y, 0)
	if !ok {
		p.stats.Rejected.Inc()
		return proto.Ticket{}, false
	}
	s := &sessionState{place: req}
	p.sessions[req.Player] = s
	p.stats.Placements.Inc()
	return p.seat(now, s, wid), true
}

// Renew extends a player's lease: a fresh ticket for its current worker with
// a new expiry and a newer epoch, so a renewal racing a drain-issued
// replacement resolves freshest-epoch-wins on the player side. The epoch the
// player renewed against is accepted even when stale — the session's current
// placement is what gets re-leased. Returns ok=false for unknown sessions.
func (p *Placer) Renew(now time.Duration, player int64) (proto.Ticket, bool) {
	s := p.sessions[player]
	if s == nil {
		return proto.Ticket{}, false
	}
	p.stats.LeaseRenewed.Inc()
	return p.issue(now, s), true
}

// shortlist is the one candidate query: the ShortlistK workers nearest to
// (x, y) that serve a session leaving worker `leaving` (zero: none), nearest
// first. Every destination — join, re-placement, backup ring, drain target —
// is a threshold on rung over this list.
func (p *Placer) shortlist(x, y float64, leaving int64) []spatial.Neighbor {
	p.leaving = leaving
	p.scratch = p.grid.NearestInto(p.scratch, x, y, p.cfg.ShortlistK, p.serves)
	return p.scratch
}

// rung is a worker's effective overload-ladder state: the worse of what the
// placer derives from occupancy and what the worker reports of itself.
func (p *Placer) rung(id int64) health.OverloadState {
	return max(p.ladder.State(id), p.workers[id].level)
}

// choose picks where a join or re-placement goes: the nearest candidate
// below Rejecting, or the cloud fallback (wid 0) when nothing admits.
func (p *Placer) choose(x, y float64, leaving int64) (wid int64, ok bool) {
	for _, nb := range p.shortlist(x, y, leaving) {
		if p.rung(nb.ID) < health.StateRejecting {
			return nb.ID, true
		}
	}
	return 0, p.cfg.CloudAddr != ""
}

// ring is a session's backup ring: the nearest candidates below Shedding,
// its serving worker excluded.
func (p *Placer) ring(s *sessionState) []string {
	var backups []string
	for _, nb := range p.shortlist(s.place.X, s.place.Y, s.worker) {
		if len(backups) >= p.cfg.Backups {
			break
		}
		if p.rung(nb.ID) < health.StateShedding {
			backups = append(backups, p.workers[nb.ID].reg.Addr)
		}
	}
	return backups
}

// drainTarget picks where a session on a distressed worker moves: the
// nearest candidate below Shedding that one more session would not push
// across the migration threshold. No cloud fallback here — drainWorker
// decides whether a session without a target stays or goes.
func (p *Placer) drainTarget(s *sessionState) (int64, bool) {
	for _, nb := range p.shortlist(s.place.X, s.place.Y, s.worker) {
		w := p.workers[nb.ID]
		if p.rung(nb.ID) < health.StateShedding && !p.ladder.WouldMigrate(w.load+1, w.capacity) {
			return nb.ID, true
		}
	}
	return 0, false
}

// seat makes wid (zero: cloud-direct) the session's newest attachment —
// counted against the worker's occupancy until its next report supersedes
// the estimate — and issues the ticket that says so.
func (p *Placer) seat(now time.Duration, s *sessionState, wid int64) proto.Ticket {
	s.worker = wid
	p.attachSeq++
	s.attachSeq = p.attachSeq
	if w := p.workers[wid]; w != nil {
		w.load++
		p.ladder.Observe(wid, w.load, w.capacity)
	}
	return p.issue(now, s)
}

// detach gives a session's seat on a live worker back.
func (p *Placer) detach(wid int64) {
	if w := p.workers[wid]; w != nil && w.load > 0 {
		w.load--
		p.ladder.Observe(wid, w.load, w.capacity)
	}
}

// move is the one re-placement: the session re-seats on `to` with a fresh
// ticket, or — nowhere to go — is retired as a forced departure, which keeps
// the ledger balanced. Giving up the old seat is the caller's business: only
// a drain leaves a worker that still counts it.
func (p *Placer) move(now time.Duration, s *sessionState, to int64, ok bool) Replacement {
	if !ok {
		p.retire(s, p.stats.Departed)
		return Replacement{Player: s.place.Player, Dropped: true}
	}
	s.replaced = true
	p.stats.Replacements.Inc()
	return Replacement{Player: s.place.Player, Ticket: p.seat(now, s, to)}
}

// retire ends a session, counted under how it ended.
func (p *Placer) retire(s *sessionState, how *obs.Counter) {
	delete(p.sessions, s.place.Player)
	how.Inc()
}

// issue builds and signs the session's current ticket, advancing the global
// epoch so every ticket supersedes all earlier ones for that player. With
// leases enabled the expiry is stamped into the signed body and the session's
// renewal deadline moves forward.
func (p *Placer) issue(now time.Duration, s *sessionState) proto.Ticket {
	p.epoch++
	s.epoch = p.epoch
	p.stats.TicketsIssued.Inc()
	t := proto.Ticket{
		Player: s.place.Player,
		Worker: s.worker,
		Epoch:  s.epoch,
		Issued: int64(now),
	}
	if p.cfg.LeaseTTL > 0 {
		s.expiry = now + p.cfg.LeaseTTL
		t.Expiry = int64(s.expiry)
		p.stats.LeaseIssued.Inc()
	}
	if w := p.workers[s.worker]; s.worker != 0 && w != nil {
		t.Transport = w.reg.Transport
		t.Addr = w.reg.Addr
		t.Backups = p.ring(s)
	} else {
		t.Transport = proto.StreamTCP
		t.Addr = p.cfg.CloudAddr
	}
	SignTicket(p.cfg.TicketKey, &t)
	return t
}

// sessionsOn returns the sessions attached to worker, oldest attachment
// first; the slice is scratch, valid until the next call.
func (p *Placer) sessionsOn(worker int64) []*sessionState {
	return p.oldestFirst(func(s *sessionState) bool { return s.worker == worker })
}

// oldestFirst collects the sessions keep accepts in attachment order. Burial
// and reconciliation walk it forward, so when survivors cannot seat everyone
// the sessions dropped are the newest; a drain walks it backward — the same
// newest sessions move first, having the least state to lose.
func (p *Placer) oldestFirst(keep func(*sessionState) bool) []*sessionState {
	p.sessScratch = p.sessScratch[:0]
	for _, s := range p.sessions {
		if keep(s) {
			p.sessScratch = append(p.sessScratch, s)
		}
	}
	slices.SortFunc(p.sessScratch, func(a, b *sessionState) int {
		return cmp.Compare(a.attachSeq, b.attachSeq)
	})
	return p.sessScratch
}

// Depart retires a player's session (its control link closed).
func (p *Placer) Depart(player int64) bool {
	s := p.sessions[player]
	if s == nil {
		return false
	}
	p.detach(s.worker)
	p.retire(s, p.stats.Departed)
	return true
}

// Deregister removes a worker voluntarily (clean shutdown): its sessions
// re-place exactly as if the detector had declared it dead, without waiting
// for the silence bound.
func (p *Placer) Deregister(now time.Duration, worker int64) []Replacement {
	w := p.workers[worker]
	if w == nil || !w.alive {
		return nil
	}
	return p.bury(now, w)
}

// Sweep evaluates every alive worker's detector at now and re-places the
// sessions of any declared dead; then drains distressed workers (proactive
// migration: a full drain hands off every session, a worker self-reporting
// Shedding or worse sheds down to the hysteresis re-entry load) and, with
// leases enabled, retires sessions whose lease lapsed a full TTL past expiry
// without renewal. Call it at least every Detector.CheckEvery to keep Bound()
// honest.
func (p *Placer) Sweep(now time.Duration) []Replacement {
	var out []Replacement
	for _, w := range p.order {
		if w.alive && w.det.Suspect(now) {
			out = append(out, p.bury(now, w)...)
		}
	}
	for _, w := range p.order {
		if w.alive && w.distressed() {
			out = append(out, p.drainWorker(now, w)...)
		}
	}
	if ttl := p.cfg.LeaseTTL; ttl > 0 {
		lapsed := func(s *sessionState) bool { return s.expiry > 0 && now >= s.expiry+ttl }
		for _, s := range p.oldestFirst(lapsed) {
			p.detach(s.worker)
			p.retire(s, p.stats.LeaseExpired)
			out = append(out, Replacement{Player: s.place.Player, Expired: true})
		}
	}
	return out
}

// drainWorker moves sessions off one distressed worker, newest attachment
// first — the RelieveOverloaded discipline: the latest arrivals have the
// least session state to lose. A full drain (w.draining) targets zero load; a
// ladder-level drain stops at (ShedAt − Hysteresis) × capacity so the worker
// re-enters the ladder below Shedding without oscillating. Sessions with no
// drain target stay put (counted stranded) — better a distressed worker than
// an interrupted stream — except a full drain falls back to the cloud when
// configured.
func (p *Placer) drainWorker(now time.Duration, w *workerState) []Replacement {
	sessions := p.sessionsOn(w.id)
	if len(sessions) == 0 {
		return nil
	}
	target := 0
	if !w.draining {
		target = int((p.olCfg.ShedAt - p.olCfg.Hysteresis) * float64(w.capacity))
	}
	if !w.drainCounted {
		w.drainCounted = true
		p.stats.DrainWorkers.Inc()
	}
	var out []Replacement
	for i := len(sessions) - 1; i >= 0 && w.load > target; i-- {
		s := sessions[i]
		to, ok := p.drainTarget(s)
		if !ok && w.draining && p.cfg.CloudAddr != "" {
			to, ok = 0, true // cloud-direct absorbs a full drain
		}
		if !ok {
			p.stats.DrainStranded.Inc()
			continue
		}
		p.detach(w.id)
		p.stats.DrainSessions.Inc()
		out = append(out, p.move(now, s, to, ok))
	}
	return out
}

// Rebase recovers from a coordinator pause (the process was stopped, not the
// workers): every alive worker's detector restarts its silence window and,
// with leases on, every live session's expiry extends to at least a full TTL
// from now — the pause was the coordinator's fault, so no lease may lapse
// because renewals couldn't land.
func (p *Placer) Rebase(now time.Duration) {
	for _, w := range p.order {
		if w.alive {
			w.det.Reset(now)
		}
	}
	if p.cfg.LeaseTTL > 0 {
		for _, s := range p.sessions {
			if s.expiry > 0 && s.expiry < now+p.cfg.LeaseTTL {
				s.expiry = now + p.cfg.LeaseTTL
			}
		}
	}
	p.stats.Rebases.Inc()
}

// bury marks a worker dead and re-places every session it was serving,
// oldest attachment first.
func (p *Placer) bury(now time.Duration, w *workerState) []Replacement {
	w.alive = false
	p.grid.Remove(w.id)
	p.ladder.Forget(w.id)
	p.stats.WorkersLost.Inc()
	var out []Replacement
	for _, s := range p.sessionsOn(w.id) {
		to, ok := p.choose(s.place.X, s.place.Y, w.id)
		out = append(out, p.move(now, s, to, ok))
	}
	return out
}

// WorkerAlive reports whether the worker is currently registered and not
// declared dead.
func (p *Placer) WorkerAlive(id int64) bool {
	w := p.workers[id]
	return w != nil && w.alive
}

// WorkersAlive counts registered, not-dead workers.
func (p *Placer) WorkersAlive() int {
	n := 0
	for _, w := range p.order {
		if w.alive {
			n++
		}
	}
	return n
}

// SessionWorker returns the worker currently serving the player's session
// (0, false if the session does not exist; 0, true for cloud-direct).
func (p *Placer) SessionWorker(player int64) (int64, bool) {
	s := p.sessions[player]
	if s == nil {
		return 0, false
	}
	return s.worker, true
}

// Ledger snapshots the session accounting: the counters read back, plus the
// live sessions split by whether churn ever moved them.
func (p *Placer) Ledger() Ledger {
	n := func(c *obs.Counter) uint64 { return uint64(c.Load()) }
	l := Ledger{
		Placements:        n(p.stats.Placements),
		Replacements:      n(p.stats.Replacements),
		Renewals:          n(p.stats.LeaseRenewed),
		TicketsIssued:     n(p.stats.TicketsIssued),
		Rejected:          n(p.stats.Rejected),
		Departed:          n(p.stats.Departed),
		Expired:           n(p.stats.LeaseExpired),
		DrainWorkers:      n(p.stats.DrainWorkers),
		DrainSessions:     n(p.stats.DrainSessions),
		DrainStranded:     n(p.stats.DrainStranded),
		Rebases:           n(p.stats.Rebases),
		Reconciled:        n(p.stats.Reconciled),
		WorkersAlive:      p.WorkersAlive(),
		WorkersRegistered: n(p.stats.WorkersRegistered),
		WorkersLost:       n(p.stats.WorkersLost),
		WorkersReturned:   n(p.stats.WorkersReturned),
	}
	for _, s := range p.sessions {
		if s.replaced {
			l.ActiveReplaced++
		} else {
			l.ActiveOriginal++
		}
	}
	return l
}
