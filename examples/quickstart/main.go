// Quickstart: build a small CloudFog deployment, join players through the
// supernode assignment protocol, and inspect what the fog buys them —
// serving attachments, response latencies, cloud bandwidth, and graceful
// failover when a supernode leaves.
package main

import (
	"fmt"
	"time"

	"cloudfog/internal/core"
	"cloudfog/internal/game"
	"cloudfog/internal/geo"
	"cloudfog/internal/sim"
)

func main() {
	// Infrastructure: two datacenters and eight supernodes around two
	// metro areas on a US-scale plane.
	cfg := core.DefaultConfig(42)
	region := cfg.Region
	dcs := []*core.Datacenter{
		core.NewDatacenter(2_000_000, geo.Point{X: 1200, Y: 1800}, cfg.DCEgress),
		core.NewDatacenter(2_000_001, geo.Point{X: 3400, Y: 1400}, cfg.DCEgress),
	}
	// A dozen supernodes per metro: players probe several candidates and
	// keep the fastest, so a denser fog means better odds of a short path.
	var sns []*core.Supernode
	for i := 0; i < 24; i++ {
		metro := geo.Point{X: 900, Y: 1100} // west metro
		if i >= 12 {
			metro = geo.Point{X: 4100, Y: 2100} // east metro
		}
		pos := region.Clamp(geo.Point{X: metro.X + float64(i%12)*30, Y: metro.Y + 25})
		sns = append(sns, core.NewSupernode(1_000_000+int64(i), pos, 5, 5*cfg.UplinkPerSlot))
	}

	fog, err := core.BuildFog(cfg, dcs, sns, sim.NewRand(7))
	if err != nil {
		panic(err)
	}
	fmt.Printf("deployment: %d datacenters, %d supernodes\n\n", len(dcs), len(sns))

	// Players near each metro, playing different game genres.
	games := game.Games()
	var players []*core.Player
	for i := 0; i < 6; i++ {
		metro := geo.Point{X: 950, Y: 1150}
		if i >= 3 {
			metro = geo.Point{X: 4050, Y: 2050}
		}
		p := &core.Player{
			ID:       int64(i),
			Pos:      region.Clamp(geo.Point{X: metro.X + float64(i)*30, Y: metro.Y}),
			Game:     &games[i%len(games)],
			Downlink: 20_000_000,
		}
		players = append(players, p)
	}

	fmt.Println("joining players:")
	for _, p := range players {
		a := fog.Join(p)
		latency := fog.NetworkLatency(p) + game.PlayoutDelay
		serving := "cloud (no qualified supernode)"
		if a.Kind() == core.AttachSupernode {
			serving = fmt.Sprintf("supernode %d (stream %v + update %v)",
				a.SN.ID, a.StreamLatency.Round(time.Millisecond), a.UpdateLatency().Round(time.Millisecond))
		}
		ok := "MISSES"
		if latency <= p.Game.ResponseRequirement() {
			ok = "meets"
		}
		fmt.Printf("  player %d (%-10s req %3dms): %-55s response %v — %s requirement\n",
			p.ID, p.Game.Name, p.Game.ResponseRequirement().Milliseconds(),
			serving, latency.Round(time.Millisecond), ok)
	}

	fmt.Printf("\ncloud egress with fog: %.1f Mbit/s", float64(fog.CloudBandwidth())/1e6)
	var direct int64
	for _, p := range players {
		direct += cfg.WireRate(p.Game.Quality().Bitrate)
	}
	fmt.Printf(" (pure cloud streaming would cost %.1f Mbit/s)\n\n", float64(direct)/1e6)

	// A supernode leaves gracefully: its players fail over to backups.
	var leaving *core.Supernode
	for _, p := range players {
		if p.Attached.Kind() == core.AttachSupernode {
			leaving = p.Attached.SN
			break
		}
	}
	if leaving != nil {
		fmt.Printf("supernode %d notifies the cloud and leaves (%d players served)\n",
			leaving.ID, leaving.Load())
		fog.DeregisterSupernode(leaving.ID)
		for _, p := range players {
			if !p.Attached.Served() {
				fmt.Printf("  player %d left unserved!\n", p.ID)
				continue
			}
		}
		fmt.Println("  every player still served after failover")
	}
}
