// Package core implements the CloudFog system itself (paper §III-A): the
// fog-assisted cloud gaming infrastructure in which a cloud of datacenters
// computes the authoritative game state and sends small update messages to
// supernodes, and supernodes render, encode and stream per-player game
// videos to nearby players. The package provides the entities (datacenters,
// supernodes, players) and the supernode assignment protocol (§III-A3). A
// Fog is also each system the evaluation compares CloudFog with: with no
// supernodes it is Cloud, and with edge servers leading its datacenters as
// well it is EdgeCloud.
package core

import (
	"fmt"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/trace"
)

// Datacenter is one cloud datacenter. It computes game state for the whole
// system and, in the baseline systems, also streams game video directly.
// EdgeCloud's deployed servers are modeled as capacity-limited datacenters
// with the Edge flag set.
type Datacenter struct {
	ID     int64
	Pos    geo.Point
	Egress int64 // total video egress bandwidth, bits/second
	// Capacity limits the number of directly-streamed players
	// (0 = unlimited). EdgeCloud servers are capacity-limited; main
	// datacenters are not.
	Capacity int
	// Edge marks an EdgeCloud-style deployed server.
	Edge bool

	direct int // players streamed directly from this DC
}

// NewDatacenter returns a datacenter with the given egress capacity.
func NewDatacenter(id int64, pos geo.Point, egress int64) *Datacenter {
	return &Datacenter{ID: id, Pos: pos, Egress: egress}
}

// NewEdgeServer returns an EdgeCloud deployed server: provisioned like a
// datacenter but limited to `capacity` players.
func NewEdgeServer(id int64, pos geo.Point, egress int64, capacity int) *Datacenter {
	d := NewDatacenter(id, pos, egress)
	d.Capacity = capacity
	d.Edge = true
	return d
}

// Endpoint returns the datacenter's latency-trace endpoint.
func (d *Datacenter) Endpoint() trace.Endpoint {
	class := trace.ClassDatacenter
	if d.Edge {
		class = trace.ClassServer
	}
	return trace.Endpoint{ID: trace.NodeID(d.ID), Pos: d.Pos, Class: class}
}

// Available reports how many more players the node can stream directly;
// capacity 0 means unlimited.
func (d *Datacenter) Available() int {
	if d.Capacity == 0 {
		return int(^uint(0) >> 1)
	}
	return d.Capacity - d.direct
}

// DirectPlayers returns how many players this datacenter streams directly.
func (d *Datacenter) DirectPlayers() int { return d.direct }

// RemoveDirect uncounts a directly-streamed player before its attachment is
// cleared; a player this datacenter does not stream to, by that attachment,
// is left alone.
func (d *Datacenter) RemoveDirect(p *Player) {
	if a := p.Attached; a.DC == d && a.SN == nil {
		d.direct--
	}
}

// Share returns the egress bandwidth share (bits/second) available to one
// directly-streamed player at the datacenter's current load.
func (d *Datacenter) Share() int64 {
	n := d.direct
	if n == 0 {
		n = 1
	}
	return d.Egress / int64(n)
}

// Supernode is one fog node: an idle machine contributed by an organization
// or player, pre-installed with the game client, that receives state
// updates from the cloud and renders/streams video for nearby players.
type Supernode struct {
	ID       int64
	Pos      geo.Point
	Capacity int   // C_j: max number of normal nodes supported
	Uplink   int64 // upload bandwidth, bits/second

	// DC is the datacenter this supernode receives updates from, chosen
	// as the minimum-latency datacenter when the supernode registers.
	DC *Datacenter
	// UpdateLatency is the one-way cloud→supernode latency on that path.
	// RegisterSupernode writes it, and nothing else does: an attached player
	// reads it through Attachment.UpdateLatency instead of keeping a copy.
	UpdateLatency time.Duration
	// access is the supernode's own last-mile delay as the latency source of
	// the Fog it last registered with resolved it; Endpoint carries it, so a
	// probe against this supernode does not derive it again.
	access time.Duration

	players members
	// slot is this supernode's index in its Fog's registration order.
	slot int
	// indexed and roomy mirror this supernode's membership of its Fog's
	// shortlist index and relief index, so Fog.reindex touches a grid only
	// on a transition.
	indexed, roomy bool
}

// NewSupernode returns a supernode with the given capacity and uplink.
func NewSupernode(id int64, pos geo.Point, capacity int, uplink int64) *Supernode {
	if capacity < 1 {
		capacity = 1
	}
	return &Supernode{ID: id, Pos: pos, Capacity: capacity, Uplink: uplink}
}

// Endpoint returns the supernode's latency-trace endpoint, resolved once it
// has registered with a Fog. Supernodes are end hosts, but vetted for stable,
// well-provisioned connectivity.
func (s *Supernode) Endpoint() trace.Endpoint {
	return trace.Endpoint{ID: trace.NodeID(s.ID), Pos: s.Pos, Class: trace.ClassSupernode, Access: s.access}
}

// Available returns the remaining player slots (C_j minus current load).
func (s *Supernode) Available() int { return s.Capacity - len(s.players) }

// Load returns the number of players currently supported.
func (s *Supernode) Load() int { return len(s.players) }

// Share returns the uplink bandwidth share (bits/second) available to one
// supported player at the supernode's current load.
func (s *Supernode) Share() int64 {
	n := len(s.players)
	if n == 0 {
		n = 1
	}
	return s.Uplink / int64(n)
}

// Player is one game client. Thin clients cannot render; they send actions
// and play back a received video stream.
type Player struct {
	// ID is the player's index in its population, below 2³¹ (workload's
	// MaxPlayers); readers widen it to the int64 every other node ID is.
	ID int32
	// slot is the player's index in its serving supernode's member list while
	// one lists it.
	slot     int32
	Pos      geo.Point
	Downlink uint32 // bits/second
	// GameID names the player's row of game's table (Game returns it); 0
	// until a join.
	GameID uint8

	// SupernodeCapable marks players whose hardware could serve as a
	// supernode (10% of the population in the paper's evaluation).
	SupernodeCapable bool

	Online   bool
	Attached Attachment
}

// Game returns the player's row of game's read-only table, or nil before
// its first join.
func (p *Player) Game() *game.Game { return game.Row(p.GameID) }

// member is one entry of a supernode's member list: the player and its backup
// ring, the fallback supernodes recorded when it attached (paper §III-A3),
// nearest-first. The ring belongs to the attachment, so it lives and goes
// with the entry.
type member struct {
	p    *Player
	ring []*Supernode
}

// members is the set of players one supernode streams to, as a list each
// member knows its place in: a player is on at most one node's list, so
// Player.slot is enough to find it, and membership costs no hashing. A
// removal shifts the later members down, so the list stays in attach order,
// which is the order overload relief evicts in (newest last).
type members []member

// add appends p, which no list holds, with its ring, and records where.
func (m *members) add(p *Player, ring []*Supernode) {
	p.slot = int32(len(*m))
	*m = append(*m, member{p, ring})
}

// remove takes p out, its ring with it, by shifting the later members down a
// slot each, so the others keep their order. A player this list does not hold
// at p.slot — one that is on another node's list, or on none — is not a
// member, and the list stays as it is. It costs the length of the list, which
// a supernode's capacity bounds.
func (m *members) remove(p *Player) {
	l := *m
	i := int(p.slot)
	if i >= len(l) || l[i].p != p {
		return
	}
	copy(l[i:], l[i+1:])
	last := len(l) - 1
	l[last] = member{}
	for ; i < last; i++ {
		l[i].p.slot = int32(i)
	}
	*m = l[:last]
}

// Endpoint returns the player's latency-trace endpoint.
func (p *Player) Endpoint() trace.Endpoint {
	return trace.Endpoint{ID: trace.NodeID(p.ID), Pos: p.Pos, Class: trace.ClassNode}
}

// AttachKind says what serves a player's video stream.
type AttachKind int

const (
	// AttachNone means the player is not being served.
	AttachNone AttachKind = iota
	// AttachCloud means a datacenter streams directly to the player.
	AttachCloud
	// AttachSupernode means a fog supernode streams to the player.
	AttachSupernode
	// AttachEdge means an EdgeCloud server streams to the player.
	AttachEdge
)

// String names the attachment kind.
func (k AttachKind) String() string {
	switch k {
	case AttachNone:
		return "none"
	case AttachCloud:
		return "cloud"
	case AttachSupernode:
		return "supernode"
	case AttachEdge:
		return "edge"
	default:
		return fmt.Sprintf("AttachKind(%d)", int(k))
	}
}

// Attachment describes how a player is served. It holds only what it cannot
// derive: the kind follows from which node is set, and the update hop is the
// serving supernode's own, which only RegisterSupernode writes, before any
// player can attach to that instance (and a failed instance hands its
// players back first).
type Attachment struct {
	DC *Datacenter // serving or state-computing datacenter; nil when unserved
	SN *Supernode  // serving supernode; nil unless a supernode streams

	// StreamLatency is the one-way propagation latency of the video hop
	// (serving node → player).
	StreamLatency time.Duration
}

// Kind says what serves the stream: a supernode when SN is set, nothing when
// DC is not, and otherwise the datacenter itself, an edge server or not.
func (a Attachment) Kind() AttachKind {
	switch {
	case a.SN != nil:
		return AttachSupernode
	case a.DC == nil:
		return AttachNone
	case a.DC.Edge:
		return AttachEdge
	}
	return AttachCloud
}

// UpdateLatency returns the one-way cloud → serving-node latency: the serving
// supernode's update hop, or zero when the cloud itself streams.
func (a Attachment) UpdateLatency() time.Duration {
	if a.SN == nil {
		return 0
	}
	return a.SN.UpdateLatency
}

// PathLatency returns the total one-way propagation latency of the serving
// path: cloud→serving node→player.
func (a Attachment) PathLatency() time.Duration { return a.UpdateLatency() + a.StreamLatency }

// Served reports whether the attachment serves a stream.
func (a Attachment) Served() bool { return a.Kind() != AttachNone }
