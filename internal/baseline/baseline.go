// Package baseline implements the two systems the CloudFog paper compares
// against (§IV):
//
//   - Cloud: the current cloud gaming model (e.g. GamingAnywhere/OnLive) —
//     every player streams its game video directly from a datacenter.
//   - EdgeCloud (Choy et al., 2012): the cloud is augmented with a number
//     of deployed edge servers that take over *all* tasks — state
//     computation, rendering and streaming — for the players they serve.
//
// Both baselines are built on the same substrates (latency trace, flow
// model, entities) as CloudFog so the comparison isolates the architecture.
package baseline

import (
	"fmt"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/sim"
)

// Cloud is the current cloud gaming model: players connect to the
// geographically closest datacenter, which computes state, renders, and
// streams the full game video.
type Cloud struct {
	cfg    core.Config
	dcs    []*core.Datacenter
	rng    *sim.Rand
	online map[int64]*core.Player
}

// NewCloud builds the Cloud baseline over the given datacenters.
func NewCloud(cfg core.Config, dcs []*core.Datacenter, rng *sim.Rand) (*Cloud, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(dcs) == 0 {
		return nil, fmt.Errorf("baseline: Cloud needs at least one datacenter")
	}
	return &Cloud{cfg: cfg, dcs: dcs, rng: rng, online: make(map[int64]*core.Player)}, nil
}

// Name identifies the system in experiment output.
func (c *Cloud) Name() string { return "Cloud" }

// Datacenters returns the baseline's datacenters.
func (c *Cloud) Datacenters() []*core.Datacenter { return c.dcs }

// OnlinePlayers returns the number of players currently served.
func (c *Cloud) OnlinePlayers() int { return len(c.online) }

// Join attaches the player to the geographically closest datacenter (by the
// provider's IP-geolocation estimate of the player's position).
func (c *Cloud) Join(p *core.Player) core.Attachment {
	if p.Online {
		return p.Attached
	}
	p.Online = true
	c.online[p.ID] = p
	est := c.cfg.Locator.Locate(p.Pos, c.rng)
	best := c.dcs[0]
	bestDist := est.DistanceTo(best.Pos)
	for _, dc := range c.dcs[1:] {
		if d := est.DistanceTo(dc.Pos); d < bestDist {
			best, bestDist = dc, d
		}
	}
	best.AddDirect(p)
	p.Attached = core.Attachment{
		Kind:          core.AttachCloud,
		DC:            best,
		StreamLatency: c.cfg.Latency.OneWay(p.Endpoint(), best.Endpoint()),
	}
	return p.Attached
}

// Leave detaches a departing player.
func (c *Cloud) Leave(p *core.Player) {
	if !p.Online {
		return
	}
	p.Online = false
	delete(c.online, p.ID)
	if p.Attached.Kind == core.AttachCloud && p.Attached.DC != nil {
		p.Attached.DC.RemoveDirect(p)
	}
	p.Attached = core.Attachment{}
}

// NetworkLatency returns the player's flow-level response network latency.
func (c *Cloud) NetworkLatency(p *core.Player) time.Duration {
	return core.FlowLatency(c.cfg, p)
}

// CloudBandwidth returns the full video egress of all datacenters: in the
// Cloud model every player's stream leaves the cloud.
func (c *Cloud) CloudBandwidth() int64 {
	var total int64
	for _, p := range c.online {
		total += c.cfg.WireRate(p.Game.Quality().Bitrate)
	}
	return total
}

var _ core.System = (*Cloud)(nil)

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

// Name identifies the system in experiment output.
func (e *EdgeCloud) Name() string { return "EdgeCloud" }

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
