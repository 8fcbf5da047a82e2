package core

import "time"

// System is the behavior shared by the compared gaming systems: EdgeCloud
// and Fog, which with no supernodes is the Cloud baseline. The experiment
// harness drives churn through Join/Leave and samples the two flow-level
// metrics every figure in the paper's evaluation aggregates.
type System interface {
	// Join serves a newly arrived player and returns its attachment.
	Join(p *Player) Attachment
	// Leave detaches a departing player.
	Leave(p *Player)
	// NetworkLatency returns the player's current flow-level response
	// network latency (propagation of the serving path plus one
	// segment's transmission at the current bandwidth share).
	NetworkLatency(p *Player) time.Duration
	// CloudBandwidth returns the cloud's current egress consumption in
	// bits/second, using each system's own accounting (EdgeCloud counts
	// only its main datacenters, as the paper's Figure 7 does).
	CloudBandwidth() int64
}

var _ System = (*Fog)(nil)
