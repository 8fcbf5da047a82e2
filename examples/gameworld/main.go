// Gameworld: walk the MMOG substrate underneath CloudFog — the cloud's
// authoritative virtual world, the update deltas it ships to supernodes,
// and the supernode replica that renders per-player views.
package main

import (
	"fmt"

	"cloudfog/internal/proto"
	"cloudfog/internal/sim"
	"cloudfog/internal/world"
)

func main() {
	cfg := world.DefaultConfig()
	w := world.New(cfg)
	rng := sim.NewRand(7)

	// Populate: 200 avatars clustered in two battlegrounds, 100 objects.
	fmt.Println("== populate the virtual world ==")
	for i := int64(1); i <= 200; i++ {
		hot := world.Vec2{X: 2000, Y: 2000}
		if i%2 == 0 {
			hot = world.Vec2{X: 7500, Y: 6500}
		}
		pos := world.Vec2{X: hot.X + rng.NormFloat64()*600, Y: hot.Y + rng.NormFloat64()*600}
		if _, err := w.SpawnAvatar(i, pos); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 100; i++ {
		w.SpawnObject(world.Vec2{X: rng.Float64() * 10000, Y: rng.Float64() * 10000})
	}
	fmt.Printf("world: %d entities at version %d\n\n", w.Len(), w.Version())

	// A supernode comes up: snapshot, then incremental deltas.
	fmt.Println("== supernode replica synchronization ==")
	replica := world.NewReplica()
	snap := w.Snapshot()
	replica.Apply(snap)
	fmt.Printf("snapshot: %d entities, %d bytes on the wire\n",
		len(snap.Updated), len(proto.AppendDelta(nil, snap)))

	// The cloud ticks: players act, world steps, deltas flow.
	var updateBytes int
	for tick := 0; tick < 30; tick++ {
		var actions []world.Action
		for i := 0; i < 10; i++ {
			p := int64(1 + rng.Intn(200))
			actions = append(actions, world.Action{
				Player: p, Kind: world.ActionMove,
				Target: world.Vec2{X: rng.Float64() * 10000, Y: rng.Float64() * 10000},
			})
		}
		w.Apply(actions)
		w.Step(1.0 / 30)
		d := w.DeltaSince(replica.Version())
		updateBytes += len(proto.AppendDelta(nil, d))
		if err := replica.Apply(d); err != nil {
			panic(err)
		}
	}
	fmt.Printf("30 ticks of updates: %d bytes total (%.1f kbit/s at 30 fps) — the Λ the economics charge\n\n",
		updateBytes, float64(updateBytes)*8*30/30/1000)

	// Render a player's view from the replica.
	fmt.Println("== per-player view rendering ==")
	av, _ := replica.Get(1)
	visible := replica.Visible(world.Viewport{Center: av.Pos, Radius: 800})
	fmt.Printf("player 1 sees %d of %d entities: the supernode renders the view, not the world\n",
		len(visible), replica.Len())
}
