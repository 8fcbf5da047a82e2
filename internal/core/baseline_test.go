package core

import (
	"testing"

	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

func twoDCs(cfg Config) []*Datacenter {
	c := cfg.Region.Center()
	return []*Datacenter{
		NewDatacenter(2_000_000, geo.Point{X: c.X - 1500, Y: c.Y}, cfg.DCEgress),
		NewDatacenter(2_000_001, geo.Point{X: c.X + 1500, Y: c.Y}, cfg.DCEgress),
	}
}

// TestSupernodeUpdateSourceSkipsEdgeServers: a supernode registering with an
// EdgeCloud-shaped fog takes its state updates from a main datacenter even
// when an edge server is the nearest node in the list.
func TestSupernodeUpdateSourceSkipsEdgeServers(t *testing.T) {
	cfg := testConfig()
	center := cfg.Region.Center()
	server := NewEdgeServer(3_000_000, center, 100_000_000, 10)
	sn := NewSupernode(1_000_000, geo.Point{X: center.X + 5, Y: center.Y}, 5, 5*cfg.UplinkPerSlot)
	if _, err := BuildFog(cfg, append([]*Datacenter{server}, twoDCs(cfg)...), []*Supernode{sn}, sim.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	if sn.DC == nil || sn.DC.Edge {
		t.Fatalf("supernode takes updates from %+v, want a main datacenter", sn.DC)
	}
}
