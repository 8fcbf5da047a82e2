// Package baseline implements EdgeCloud (Choy et al., 2012), one of the two
// systems the CloudFog paper compares against (§IV): the cloud is augmented
// with a number of deployed edge servers that take over *all* tasks — state
// computation, rendering and streaming — for the players they serve.
//
// The other, Cloud — every player streams its game video directly from the
// datacenter nearest it — is the assignment protocol's own cloud fallback
// applied to everyone: a core.Fog with no supernodes (experiment's
// World.NewCloud), so the fallback rule is written once.
//
// EdgeCloud is built on the same substrates (latency trace, flow model,
// entities) as CloudFog so the comparison isolates the architecture.
package baseline

import (
	"fmt"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/sim"
)

// EdgeCloud augments the cloud with deployed edge servers near users. An
// edge server runs the full stack for its players, so a player attaches to
// the closest of (servers ∪ datacenters) that has capacity.
type EdgeCloud struct {
	cfg     core.Config
	dcs     []*core.Datacenter
	servers []*core.Datacenter
	rng     *sim.Rand
	online  map[int64]*core.Player
}

// NewEdgeCloud builds the EdgeCloud baseline. Servers should be constructed
// with core.NewEdgeServer (capacity-limited, provisioned links).
func NewEdgeCloud(cfg core.Config, dcs, servers []*core.Datacenter, rng *sim.Rand) (*EdgeCloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(dcs) == 0 {
		return nil, fmt.Errorf("baseline: EdgeCloud needs at least one datacenter")
	}
	for i, s := range servers {
		if !s.Edge {
			return nil, fmt.Errorf("baseline: server %d is not an edge server (use core.NewEdgeServer)", i)
		}
	}
	return &EdgeCloud{cfg: cfg, dcs: dcs, servers: servers, rng: rng,
		online: make(map[int64]*core.Player)}, nil
}

// OnlinePlayers returns the number of players currently served.
func (e *EdgeCloud) OnlinePlayers() int { return len(e.online) }

// Join attaches the player to the closest node among edge servers and
// datacenters that still has capacity.
func (e *EdgeCloud) Join(p *core.Player) core.Attachment {
	if p.Online {
		return p.Attached
	}
	p.Online = true
	e.online[p.ID] = p
	est := e.cfg.Locator.Locate(p.Pos, e.rng)

	var best *core.Datacenter
	bestDist := 0.0
	consider := func(d *core.Datacenter) {
		if d.Available() <= 0 {
			return
		}
		dist := est.DistanceTo(d.Pos)
		if best == nil || dist < bestDist {
			best, bestDist = d, dist
		}
	}
	for _, s := range e.servers {
		consider(s)
	}
	for _, dc := range e.dcs {
		consider(dc)
	}
	// Main datacenters are uncapacitated, so best is never nil.
	best.AddDirect(p)
	kind := core.AttachCloud
	if best.Edge {
		kind = core.AttachEdge
	}
	p.Attached = core.Attachment{
		Kind:          kind,
		DC:            best,
		StreamLatency: e.cfg.Latency.OneWay(p.Endpoint(), best.Endpoint()),
	}
	return p.Attached
}

// Leave detaches a departing player.
func (e *EdgeCloud) Leave(p *core.Player) {
	if !p.Online {
		return
	}
	p.Online = false
	delete(e.online, p.ID)
	if p.Attached.DC != nil {
		p.Attached.DC.RemoveDirect(p)
	}
	p.Attached = core.Attachment{}
}

// NetworkLatency returns the player's flow-level response network latency.
func (e *EdgeCloud) NetworkLatency(p *core.Player) time.Duration {
	return core.FlowLatency(e.cfg, p)
}

// CloudBandwidth returns the egress of the main datacenters only, matching
// the paper's Figure 7 accounting ("the bandwidth consumption of EdgeCloud
// does not include those of additional servers").
func (e *EdgeCloud) CloudBandwidth() int64 {
	var total int64
	for _, p := range e.online {
		if p.Attached.Kind == core.AttachCloud {
			total += e.cfg.WireRate(p.Game.Quality().Bitrate)
		}
	}
	return total
}

// TotalBandwidth includes the edge servers' egress as well — the paper
// notes that with servers included EdgeCloud's consumption is similar to
// Cloud's.
func (e *EdgeCloud) TotalBandwidth() int64 {
	var total int64
	for _, p := range e.online {
		total += e.cfg.WireRate(p.Game.Quality().Bitrate)
	}
	return total
}

var _ core.System = (*EdgeCloud)(nil)
