package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/health"
	"cloudfog/internal/sim"
	"cloudfog/internal/spatial"
	"cloudfog/internal/trace"
)

// Fog is the CloudFog system: a cloud of datacenters plus a fog of
// registered supernodes. It is also every system the evaluation compares it
// with: with no supernodes it is Cloud, and with no supernodes and edge
// servers leading its datacenter list it is EdgeCloud.
//
// A Fog is not safe for concurrent use: the assignment protocol reuses
// per-instance scratch buffers so the steady-state join/failover path does
// not allocate.
type Fog struct {
	cfg Config
	rng *sim.Rand
	// latency is cfg.Latency as the probe loop asks it: bound once, so a
	// probe makes no type assertion and has one path whatever the source.
	latency trace.Prober

	dcs []*Datacenter
	sns map[int64]*Supernode
	// snOrder holds the registered supernodes in registration order, for
	// deterministic iteration, each at index Supernode.slot. A supernode that
	// fails leaves a nil behind instead of closing the gap, so a failure costs
	// the same at any fleet size; snDead counts the nils. compactOrder squeezes
	// them out before anyone reads the order (Supernodes) and as soon as they
	// outnumber the living, so the slice never holds more than twice the fleet.
	snOrder []*Supernode
	snDead  int

	// snEstPos is the cloud's geolocated view of each supernode's
	// position (paper §III-A3: coordinates determined from IP addresses).
	snEstPos map[int64]struct{ x, y float64 }

	// snIdx spatially indexes the geolocated supernode table so the
	// shortlist step is an expanding-ring k-nearest query instead of a
	// scan-and-sort over every registered supernode. It holds exactly the
	// supernodes a join could use — registered, Available() > 0 and, with a
	// ladder configured, Overload.Admit — so a query on a saturated fog walks
	// only the nodes with room. reindex keeps that invariant; it is reached
	// from every membership change (observeOccupancy) and from registration.
	snIdx *spatial.Grid
	// roomIdx is the index relief queries: the members of snIdx that one more
	// player would not tip into Migrating. An evictee landing anywhere else
	// only moves the overflow sideways (a two-slot node jumps Normal→Migrating
	// on a single join) and the sweep chases it around the fog. reindex keeps
	// it beside snIdx; without a ladder nothing is ever roomy and it stays
	// empty.
	roomIdx *spatial.Grid
	// relieving is the supernode RelieveOverloaded is re-placing an evictee
	// of, nil at every other time. While it is set shortlist queries roomIdx
	// and passes notRelieving — the method value, bound once so relief
	// allocates no closure — as the one query-time filter.
	relieving    *Supernode
	notRelieving func(id int64) bool

	// online counts the players that have joined and not left, served or not.
	online int

	// Scratch buffers reused across assignment-protocol calls.
	nbrScratch   []spatial.Neighbor
	candScratch  []*Supernode
	probeScratch []probe
}

// probe is one shortlist candidate with its probed streaming-hop delay.
type probe struct {
	sn    *Supernode
	delay time.Duration
}

// RandDraws returns how many draws the fog's geolocation stream has made —
// the control plane's RNG witness for the flight recorder. The count is a
// pure function of the join/failover history, so a replay that diverges
// anywhere in the assignment protocol shows up here even when the figure
// bytes happen to agree.
func (f *Fog) RandDraws() uint64 { return f.rng.Draws() }

// BuildFog constructs a Fog with the given datacenters and supernodes. The
// rng drives geolocation error draws; pass a dedicated stream for
// reproducibility. Edge servers may sit among the datacenters; the list needs
// at least one main datacenter, which is uncapacitated, so the cloud fallback
// always has room and every supernode an update source.
func BuildFog(cfg Config, dcs []*Datacenter, sns []*Supernode, rng *sim.Rand) (*Fog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !slices.ContainsFunc(dcs, func(dc *Datacenter) bool { return !dc.Edge }) {
		return nil, fmt.Errorf("core: a fog needs at least one main datacenter")
	}
	f := &Fog{
		cfg:      cfg,
		rng:      rng,
		dcs:      dcs,
		sns:      make(map[int64]*Supernode, len(sns)),
		snEstPos: make(map[int64]struct{ x, y float64 }, len(sns)),
		latency:  trace.AsProber(cfg.Latency),
		snIdx:    spatial.NewGrid(cfg.Region.Width, cfg.Region.Height),
		roomIdx:  spatial.NewGrid(cfg.Region.Width, cfg.Region.Height),
	}
	f.notRelieving = f.isNotRelieving
	for _, sn := range sns {
		if err := f.RegisterSupernode(sn); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Supernodes returns the registered supernodes in registration order. The
// slice is the Fog's own: a caller that fails or registers supernodes while
// walking it copies it first.
func (f *Fog) Supernodes() []*Supernode {
	if f.snDead > 0 {
		f.compactOrder()
	}
	return f.snOrder
}

// compactOrder closes the gaps failed supernodes left in snOrder.
func (f *Fog) compactOrder() {
	live := f.snOrder[:0]
	for _, sn := range f.snOrder {
		if sn != nil {
			sn.slot = len(live)
			live = append(live, sn)
		}
	}
	clear(f.snOrder[len(live):])
	f.snOrder, f.snDead = live, 0
}

// Supernode returns the registered supernode with the given ID, if any.
func (f *Fog) Supernode(id int64) (*Supernode, bool) {
	sn, ok := f.sns[id]
	return sn, ok
}

// OnlinePlayers returns the number of players that have joined and not left,
// served or not: a player no node could take still counts.
func (f *Fog) OnlinePlayers() int { return f.online }

// RegisterSupernode adds a supernode to the fog. The supernode probes all
// main datacenters and attaches to the minimum-latency one for state updates
// (an edge server computes no state for others);
// the cloud records its geolocated position for future shortlists, and the
// supernode's last-mile delay is resolved here, once, for every player that
// will ever probe it.
func (f *Fog) RegisterSupernode(sn *Supernode) error {
	if _, dup := f.sns[sn.ID]; dup {
		return fmt.Errorf("core: supernode %d already registered", sn.ID)
	}
	ep := f.latency.Resolve(sn.Endpoint())
	sn.access = ep.Access
	var best *Datacenter
	var bestLat time.Duration
	for _, dc := range f.dcs {
		if dc.Edge {
			continue
		}
		if l := f.latency.OneWay(dc.Endpoint(), ep); best == nil || l < bestLat {
			best, bestLat = dc, l
		}
	}
	sn.DC = best
	sn.UpdateLatency = bestLat
	f.sns[sn.ID] = sn
	sn.slot = len(f.snOrder)
	f.snOrder = append(f.snOrder, sn)
	est := f.cfg.Locator.Locate(sn.Pos, f.rng)
	f.snEstPos[sn.ID] = struct{ x, y float64 }{est.X, est.Y}
	f.reindex(sn)
	return nil
}

// DeregisterSupernode removes a supernode gracefully (paper: supernodes
// notify the central server before leaving): its players fail over to their
// backups or rejoin through the full assignment protocol immediately.
func (f *Fog) DeregisterSupernode(id int64) {
	for _, p := range f.FailSupernode(id) {
		f.Failover(p)
	}
}

// FailSupernode removes a supernode abruptly — a crash, not a graceful
// leave — and returns its orphaned players in ID order with their
// attachments cleared but NOT repaired. The caller decides when each orphan
// fails over (the fault injector delays repairs by the failure-detection
// interval); until then the orphan is unserved. The returned slice is owned
// by the caller.
func (f *Fog) FailSupernode(id int64) []*Player {
	sn, ok := f.sns[id]
	if !ok {
		return nil
	}
	delete(f.sns, id)
	delete(f.snEstPos, id)
	f.snIdx.Remove(id)
	f.roomIdx.Remove(id)
	sn.indexed, sn.roomy = false, false
	f.snOrder[sn.slot] = nil
	if f.snDead++; 2*f.snDead > len(f.snOrder) {
		f.compactOrder()
	}
	// The departed instance's member list is the answer: the instance keeps
	// none of it, so nothing that still points at it finds a player there.
	orphans := []*Player(sn.players)
	sn.players = nil
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].ID < orphans[j].ID })
	for _, p := range orphans {
		p.Attached = Attachment{}
	}
	if f.cfg.Overload != nil {
		f.cfg.Overload.Forget(id)
	}
	return orphans
}

// Failover repairs one orphaned player through the backup-first protocol.
// It reports false without acting when the player is no longer repairable:
// already gone offline (its session ended while the orphan sat undetected)
// or already serving again through some other path. Callers accounting for
// orphans must count a false return as a lapsed repair.
func (f *Fog) Failover(p *Player) bool {
	if !p.Online || p.Attached.Served() {
		return false
	}
	f.failover(p)
	return true
}

// Join runs the supernode assignment protocol of §III-A3 for a player and
// returns the resulting attachment.
func (f *Fog) Join(p *Player) Attachment {
	if p.Online {
		return p.Attached
	}
	p.Online = true
	f.online++
	f.assign(p)
	return p.Attached
}

// Leave detaches a player from its serving node.
func (f *Fog) Leave(p *Player) {
	if !p.Online {
		return
	}
	p.Online = false
	f.online--
	f.detach(p)
	p.Backups = nil
}

func (f *Fog) detach(p *Player) {
	switch p.Attached.Kind() {
	case AttachSupernode:
		p.Attached.SN.players.removeOrdered(p)
		f.observeOccupancy(p.Attached.SN)
	case AttachCloud, AttachEdge:
		p.Attached.DC.RemoveDirect(p)
	}
	p.Attached = Attachment{}
}

// observeOccupancy follows one membership change on a supernode: it feeds
// the post-change slot occupancy into the overload ladder (one nil-check when
// the ladder is off) and reconciles the shortlist index. A node's ladder
// state moves only inside this Observe, so no other site can change whether
// the node is admissible.
func (f *Fog) observeOccupancy(sn *Supernode) {
	if f.cfg.Overload != nil {
		f.cfg.Overload.Observe(sn.ID, sn.Load(), sn.Capacity)
	}
	f.reindex(sn)
}

// reindex makes both indexes agree with what sn could take: it is in snIdx
// exactly while it has a free slot and the ladder admits it, and in roomIdx
// exactly while it is in snIdx and one more player would leave it short of
// Migrating. A re-insert goes back to the position geolocated at registration
// (no new Locate draw). An instance that is no longer the one registered
// under its ID is never indexed — the ID may by now belong to a fresh machine.
func (f *Fog) reindex(sn *Supernode) {
	ol := f.cfg.Overload
	indexed := sn.Available() > 0 && (ol == nil || ol.Admit(sn.ID))
	roomy := indexed && ol != nil && !ol.WouldMigrate(sn.Load()+1, sn.Capacity)
	if (indexed == sn.indexed && roomy == sn.roomy) || f.sns[sn.ID] != sn {
		return
	}
	est := f.snEstPos[sn.ID]
	setMember(f.snIdx, &sn.indexed, indexed, sn.ID, est.x, est.y)
	setMember(f.roomIdx, &sn.roomy, roomy, sn.ID, est.x, est.y)
}

// setMember puts id into g or takes it out so that membership equals want,
// touching the grid only when *member says that is a change.
func setMember(g *spatial.Grid, member *bool, want bool, id int64, x, y float64) {
	if want == *member {
		return
	}
	*member = want
	if want {
		g.Insert(id, x, y)
	} else {
		g.Remove(id)
	}
}

// attachSN commits a supernode attachment: membership at the end of the
// node's list (its attach order), the attachment record, and the ladder
// observation.
func (f *Fog) attachSN(p *Player, sn *Supernode, streamLat time.Duration) {
	sn.players.add(p)
	p.Attached = Attachment{DC: sn.DC, SN: sn, StreamLatency: streamLat}
	f.observeOccupancy(sn)
}

// assign implements the join protocol: the cloud shortlists the
// geographically closest supernodes with available capacity, the player
// probes their transmission delay, drops candidates above its L_max
// threshold, attaches to the fastest and records the rest as backups; a
// player with no qualified supernode connects directly to the cloud. One
// player probes the whole shortlist, so its endpoint is resolved here, once:
// its own last-mile delay is derived per call, not per candidate.
func (f *Fog) assign(p *Player) {
	pe := f.latency.Resolve(p.Endpoint())
	est := f.cfg.Locator.Locate(p.Pos, f.rng)
	cands := f.shortlist(est.X, est.Y, f.cfg.Candidates)
	lmax := f.cfg.Lmax(p.Game.NetworkBudget())

	budget := p.Game.NetworkBudget()
	// The guaranteed transmission floor: a supernode provisions
	// UplinkPerSlot per supported player, so one segment at the game's
	// bitrate takes at least segBytes/perSlot to send.
	segBits := float64(f.cfg.Stream.SegmentBytes(p.Game.Quality().Bitrate)) * 8
	minTrans := time.Duration(segBits / float64(f.cfg.UplinkPerSlot) * float64(time.Second))
	probes := f.probeScratch[:0]
	for _, sn := range cands {
		// A candidate qualifies when the probed streaming hop fits the
		// player's L_max threshold and the full serving path — update hop
		// and per-slot transmission floor included — fits the game's
		// network budget; otherwise streaming from this supernode could
		// not possibly satisfy the player and the direct cloud connection
		// is the better fallback. Both are ceilings on the one probed hop,
		// so the tighter is the candidate's limit and the source may stop at
		// the first term that exceeds it.
		limit := min(lmax, budget-sn.UpdateLatency-minTrans)
		if d, ok := f.latency.Within(pe, sn.Endpoint(), limit); ok {
			probes = append(probes, probe{sn, d})
		}
	}
	f.probeScratch = probes
	// Rank candidates by total serving-path delay: the probed streaming
	// hop plus the supernode's advertised cloud→supernode update latency.
	// The video for an action cannot be rendered before the update
	// arrives, so both hops are on the response path. A stable insertion
	// sort keeps shortlist order among equal-delay candidates without the
	// allocations of sort.SliceStable; the shortlist is at most
	// cfg.Candidates long.
	for i := 1; i < len(probes); i++ {
		for j := i; j > 0 && probes[j].delay+probes[j].sn.UpdateLatency <
			probes[j-1].delay+probes[j-1].sn.UpdateLatency; j-- {
			probes[j], probes[j-1] = probes[j-1], probes[j]
		}
	}

	for i, pr := range probes {
		if pr.sn.Available() <= 0 {
			continue
		}
		f.attachSN(p, pr.sn, pr.delay)
		rest := probes[i+1:]
		if cap(p.Backups) < len(rest) {
			p.Backups = make([]*Supernode, 0, len(rest))
		} else {
			p.Backups = p.Backups[:0]
		}
		for _, b := range rest {
			// A shedding supernode has stepped off backup duty: recording
			// it would aim future failovers at an overloaded node.
			if f.cfg.Overload != nil && !f.cfg.Overload.AllowBackup(b.sn.ID) {
				continue
			}
			p.Backups = append(p.Backups, b.sn)
		}
		if o := f.cfg.Obs; o != nil {
			o.JoinsFog.Inc()
		}
		return
	}
	f.attachCloud(p, pe, est.X, est.Y)
}

// failover reattaches an orphaned player, preferring its recorded backups
// (re-probed for liveness, capacity and delay) before rerunning the full
// protocol.
func (f *Fog) failover(p *Player) {
	lmax := f.cfg.Lmax(p.Game.NetworkBudget())
	pe := f.latency.Resolve(p.Endpoint())
	for i, sn := range p.Backups {
		// The backup must still be the registered machine: a departed
		// supernode whose contributor later re-registers under the same
		// ID is a fresh instance, and this stale pointer must not absorb
		// players behind its back.
		if live, ok := f.sns[sn.ID]; !ok || live != sn || sn.Available() <= 0 {
			continue
		}
		if f.cfg.Overload != nil && !f.cfg.Overload.Admit(sn.ID) {
			if f.cfg.Health != nil {
				f.cfg.Health.JoinsRejected.Inc()
			}
			continue
		}
		d, ok := f.latency.Within(pe, sn.Endpoint(), lmax)
		if !ok {
			continue
		}
		f.attachSN(p, sn, d)
		p.Backups = p.Backups[i+1:]
		if o := f.cfg.Obs; o != nil {
			o.FailoverBackupHits.Inc()
		}
		return
	}
	p.Backups = nil
	if o := f.cfg.Obs; o != nil {
		o.FailoverReassigns.Inc()
	}
	f.assign(p)
}

// RelieveOverloaded migrates players off every supernode whose degradation
// ladder reached the Migrating rung: newest attachments leave first (they
// have the least session investment on the node) and rejoin through the full
// assignment protocol, shortlisted from roomIdx: nodes the ladder admits and
// the evictee would not itself overfill. The sweep repeats per node until its
// ladder retreats below Migrating or it has no players left. Returns how many
// players moved.
func (f *Fog) RelieveOverloaded() int {
	o := f.cfg.Overload
	if o == nil {
		return 0
	}
	moved := 0
	// Draining one node can tip a smaller one into Migrating after its
	// turn, so passes repeat until one moves nobody — with a hard cap so
	// the call provably terminates (stragglers wait for the next relief
	// tick).
	for pass := 0; pass < 8; pass++ {
		movedThisPass := 0
		for _, sn := range f.Supernodes() {
			for o.ShouldMigrate(sn.ID) && sn.Load() > 0 {
				// The list is in attach order, so the newest is last.
				newest := sn.players[len(sn.players)-1]
				sn.players.removeOrdered(newest)
				f.observeOccupancy(sn)
				newest.Attached = Attachment{}
				newest.Backups = nil
				f.relieving = sn
				f.assign(newest)
				f.relieving = nil
				movedThisPass++
				if f.cfg.Health != nil {
					f.cfg.Health.Migrations.Inc()
				}
			}
		}
		moved += movedThisPass
		if movedThisPass == 0 {
			break
		}
	}
	return moved
}

// isNotRelieving is the shortlist filter while relief re-places an evictee:
// the node being drained must not re-admit its own evictee. Shedding relaxes
// the shedder's ladder mid-loop: the eviction that takes it below Migrating
// can leave it admitting with two slots free — roomy again while its last
// evictee is still being placed — and it would take the player straight back.
// That is about the sweep, not about the node, so no index invariant can say
// it. Pure, as NearestInto requires.
func (f *Fog) isNotRelieving(id int64) bool { return id != f.relieving.ID }

// SupernodeLevelCap returns the encoding-ladder cap the overload ladder
// currently imposes on one supernode's players, given a player's preferred
// start level; 0 means uncapped (no ladder configured).
func (f *Fog) SupernodeLevelCap(snID int64, startLevel int) int {
	if f.cfg.Overload == nil {
		return 0
	}
	return f.cfg.Overload.LevelCap(snID, startLevel)
}

// Overload returns the configured degradation ladder, if any.
func (f *Fog) Overload() *health.Overload { return f.cfg.Overload }

// attachCloud connects a player directly to the geographically closest
// datacenter with room (by the cloud's estimate of the player's position);
// the first in list order wins a tie. An edge server that takes the player
// serves it as AttachEdge; a main datacenter always has room.
func (f *Fog) attachCloud(p *Player, pe trace.Endpoint, estX, estY float64) {
	var best *Datacenter
	bestDist := 0.0
	for _, dc := range f.dcs {
		if dc.Available() <= 0 {
			continue
		}
		if d := dist2(estX, estY, dc.Pos.X, dc.Pos.Y); best == nil || d < bestDist {
			best, bestDist = dc, d
		}
	}
	best.AddDirect(p)
	p.Attached = Attachment{DC: best, StreamLatency: f.latency.OneWay(pe, best.Endpoint())}
	if o := f.cfg.Obs; o != nil {
		o.JoinsCloud.Inc()
	}
}

// shortlist returns the k supernodes with available capacity closest to the
// estimated position, using the cloud's geolocated supernode table. The
// spatial index holds only supernodes with a free slot that the ladder
// admits, so the query answers in O(k log k + cells visited) and the
// traversal filters nothing; while relief re-places an evictee the query goes
// to the stricter roomIdx instead and passes over one node, the one being
// drained. Equal distances break on supernode ID, so the shortlist is a
// deterministic function of the index's contents alone. The returned slice is
// scratch owned by the Fog, valid until the next shortlist call.
func (f *Fog) shortlist(x, y float64, k int) []*Supernode {
	idx := f.snIdx
	var accept func(id int64) bool
	if f.relieving != nil {
		idx, accept = f.roomIdx, f.notRelieving
	}
	f.nbrScratch = idx.NearestInto(f.nbrScratch[:0], x, y, k, accept)
	out := f.candScratch[:0]
	for _, nb := range f.nbrScratch {
		out = append(out, f.sns[nb.ID])
	}
	f.candScratch = out
	return out
}

func dist2(ax, ay, bx, by float64) float64 {
	dx, dy := ax-bx, ay-by
	return dx*dx + dy*dy
}

// NetworkLatency returns the player's flow-level response network latency:
// the propagation latency of the serving path plus the transmission time of
// one video segment at the player's current bandwidth share. This is the
// quantity the coverage and latency figures aggregate.
func (f *Fog) NetworkLatency(p *Player) time.Duration {
	return FlowLatency(f.cfg, p)
}

// Census is a flow-level count over a set of players at one instant.
type Census struct {
	Served    int // attached to anything
	FogServed int // of those, attached to a supernode
	Unserved  int
	Within    int // of the served, inside their game's network latency budget
}

// Census counts players by how they are served right now.
func (f *Fog) Census(players []*Player) Census {
	var c Census
	for _, p := range players {
		if !p.Attached.Served() {
			c.Unserved++
			continue
		}
		c.Served++
		if p.Attached.SN != nil {
			c.FogServed++
		}
		if f.NetworkLatency(p) <= p.Game.NetworkBudget() {
			c.Within++
		}
	}
	return c
}

// CloudBandwidth returns the cloud's current video egress consumption:
// Λ per active supernode (fog players cost the cloud only update traffic)
// plus full stream bandwidth for each player a main datacenter streams to.
// Edge servers are left out, as the paper's Figure 7 accounts EdgeCloud ("the
// bandwidth consumption of EdgeCloud does not include those of additional
// servers").
func (f *Fog) CloudBandwidth() int64 {
	var total int64
	for _, sn := range f.Supernodes() {
		if sn.Load() > 0 {
			total += f.cfg.UpdateBandwidth
		}
	}
	for _, dc := range f.dcs {
		if dc.Edge {
			continue
		}
		for _, p := range dc.direct {
			total += f.cfg.WireRate(p.Game.Quality().Bitrate)
		}
	}
	return total
}

// FlowLatency is the flow-level latency model every compared system is
// measured by: propagation of the serving path plus one segment's
// transmission at the bottleneck share (serving node share vs. player
// downlink). Unserved players get an effectively infinite latency.
func FlowLatency(cfg Config, p *Player) time.Duration {
	return FlowLatencyAt(cfg, p, p.Game.Quality().Bitrate)
}

// FlowLatencyAt is FlowLatency with an explicit encoding bitrate, used to
// evaluate what latency a player would see at a different quality level
// (the flow-level proxy for the rate-adaptation strategy).
func FlowLatencyAt(cfg Config, p *Player, bitrate int64) time.Duration {
	a := p.Attached
	if !a.Served() {
		return time.Duration(1<<62 - 1) // effectively uncovered
	}
	var share int64
	switch a.Kind() {
	case AttachSupernode:
		share = a.SN.Share()
	case AttachCloud, AttachEdge:
		share = a.DC.Share()
	}
	if p.Downlink > 0 && share > p.Downlink {
		share = p.Downlink
	}
	if share <= 0 {
		return time.Duration(1<<62 - 1)
	}
	segBytes := cfg.Stream.SegmentBytes(bitrate)
	trans := time.Duration(float64(segBytes) * 8 / float64(share) * float64(time.Second))
	return a.PathLatency() + trans
}

// AdaptedFlowLatency returns the flow latency of a player whose encoder may
// step down the quality ladder to fit the game's network budget: the
// highest level at or below the game's matched level that meets the budget,
// or the lowest ladder level if none does. This is the flow-level proxy for
// the receiver-driven rate adaptation when whole-system (rather than
// per-node event-driven) latency figures are computed.
func AdaptedFlowLatency(cfg Config, p *Player) time.Duration {
	budget := p.Game.NetworkBudget()
	for lvl := p.Game.StartLevel; lvl >= 1; lvl-- {
		l := FlowLatencyAt(cfg, p, mustBitrate(lvl))
		if l <= budget || lvl == 1 {
			return l
		}
	}
	return FlowLatencyAt(cfg, p, mustBitrate(1))
}

func mustBitrate(level int) int64 {
	q, err := game.LevelAt(level)
	if err != nil {
		panic(err)
	}
	return q.Bitrate
}
