package world

import (
	"math"
	"testing"
	"testing/quick"

	"cloudfog/internal/sim"
)

func TestSpawnAndLookup(t *testing.T) {
	w := New(DefaultConfig())
	av, err := w.SpawnAvatar(7, Vec2{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if av.Kind != KindAvatar || av.Owner != 7 || av.HP != 100 {
		t.Fatalf("avatar misconfigured: %+v", av)
	}
	if w.Avatar(7) != av || w.Get(av.ID) != av {
		t.Fatal("lookup broken")
	}
	if _, err := w.SpawnAvatar(7, Vec2{0, 0}); err == nil {
		t.Fatal("duplicate avatar accepted")
	}
	obj := w.SpawnObject(Vec2{50, 50})
	if obj.Kind != KindObject || obj.Owner != 0 {
		t.Fatalf("object misconfigured: %+v", obj)
	}
	if w.Len() != 2 {
		t.Fatalf("world has %d entities, want 2", w.Len())
	}
}

func TestSpawnClampsToBounds(t *testing.T) {
	w := New(DefaultConfig())
	av, _ := w.SpawnAvatar(1, Vec2{-50, 99999})
	if !w.Bounds().Contains(av.Pos) && av.Pos != (Vec2{0, 10000}) {
		t.Fatalf("avatar spawned out of bounds at %+v", av.Pos)
	}
}

func TestMoveAndStep(t *testing.T) {
	cfg := DefaultConfig()
	w := New(cfg)
	av, _ := w.SpawnAvatar(1, Vec2{100, 100})
	w.Apply([]Action{{Player: 1, Kind: ActionMove, Target: Vec2{220, 100}}})
	if av.Vel.Len() == 0 {
		t.Fatal("move did not set velocity")
	}
	w.Step(1.0) // MoveSpeed 120/s toward +X
	if math.Abs(av.Pos.X-220) > 1e-9 || av.Pos.Y != 100 {
		t.Fatalf("avatar at %+v, want (220,100)", av.Pos)
	}
	w.Apply([]Action{{Player: 1, Kind: ActionStop}})
	before := av.Pos
	w.Step(1.0)
	if av.Pos != before {
		t.Fatal("stopped avatar moved")
	}
}

func TestStepStopsAtBoundary(t *testing.T) {
	w := New(DefaultConfig())
	av, _ := w.SpawnAvatar(1, Vec2{10, 10})
	w.Apply([]Action{{Player: 1, Kind: ActionMove, Target: Vec2{-1000, 10}}})
	for i := 0; i < 10; i++ {
		w.Step(1.0)
	}
	if av.Pos.X != 0 {
		t.Fatalf("avatar at %+v, want clamped at X=0", av.Pos)
	}
	if av.Vel != (Vec2{}) {
		t.Fatal("velocity not zeroed at boundary")
	}
}

func TestStrike(t *testing.T) {
	cfg := DefaultConfig()
	w := New(cfg)
	attacker, _ := w.SpawnAvatar(1, Vec2{100, 100})
	victim, _ := w.SpawnAvatar(2, Vec2{120, 100}) // within reach 50
	far, _ := w.SpawnAvatar(3, Vec2{900, 900})

	w.Apply([]Action{{Player: 1, Kind: ActionStrike, Victim: victim.ID}})
	if victim.HP != cfg.MaxHP-cfg.StrikeDmg {
		t.Fatalf("victim HP %d, want %d", victim.HP, cfg.MaxHP-cfg.StrikeDmg)
	}
	// Out of reach: no damage.
	w.Apply([]Action{{Player: 1, Kind: ActionStrike, Victim: far.ID}})
	if far.HP != cfg.MaxHP {
		t.Fatal("out-of-reach strike landed")
	}
	// Self-strike ignored.
	w.Apply([]Action{{Player: 1, Kind: ActionStrike, Victim: attacker.ID}})
	if attacker.HP != cfg.MaxHP {
		t.Fatal("self strike landed")
	}
}

func TestStrikeToDeathRemovesEntity(t *testing.T) {
	cfg := DefaultConfig()
	w := New(cfg)
	w.SpawnAvatar(1, Vec2{100, 100})
	victim, _ := w.SpawnAvatar(2, Vec2{110, 100})
	for i := 0; i < int(cfg.MaxHP/cfg.StrikeDmg); i++ {
		w.Apply([]Action{{Player: 1, Kind: ActionStrike, Victim: victim.ID}})
	}
	if w.Get(victim.ID) != nil {
		t.Fatal("dead avatar still in world")
	}
	if w.Avatar(2) != nil {
		t.Fatal("dead avatar still owned")
	}
	// The player can respawn.
	if _, err := w.SpawnAvatar(2, Vec2{200, 200}); err != nil {
		t.Fatalf("respawn failed: %v", err)
	}
}

func TestUnknownPlayerActionsIgnored(t *testing.T) {
	w := New(DefaultConfig())
	w.Apply([]Action{{Player: 99, Kind: ActionMove, Target: Vec2{1, 1}}})
	if w.Version() == 0 {
		t.Fatal("apply should still tick the version")
	}
}

// TestReplicaConvergence is the core delta property: applying every delta
// in order leaves the replica identical to the world, whatever happened.
func TestReplicaConvergence(t *testing.T) {
	rng := sim.NewRand(1)
	cfg := DefaultConfig()
	w := New(cfg)
	r := NewReplica()
	if err := r.Apply(w.Snapshot()); err != nil {
		t.Fatal(err)
	}

	players := []int64{1, 2, 3, 4, 5}
	for _, p := range players {
		w.SpawnAvatar(p, Vec2{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	for i := 0; i < 500; i++ {
		switch rng.Intn(5) {
		case 0:
			p := players[rng.Intn(len(players))]
			w.Apply([]Action{{Player: p, Kind: ActionMove,
				Target: Vec2{rng.Float64() * 1000, rng.Float64() * 1000}}})
		case 1:
			w.Step(0.1)
		case 2:
			p := players[rng.Intn(len(players))]
			if av := w.Avatar(p); av != nil {
				// Strike the nearest other entity.
				for _, q := range players {
					if v := w.Avatar(q); v != nil && v.ID != av.ID {
						w.Apply([]Action{{Player: p, Kind: ActionStrike, Victim: v.ID}})
						break
					}
				}
			}
		case 3:
			w.SpawnObject(Vec2{rng.Float64() * 1000, rng.Float64() * 1000})
		case 4:
			p := players[rng.Intn(len(players))]
			if w.Avatar(p) == nil {
				w.SpawnAvatar(p, Vec2{rng.Float64() * 500, rng.Float64() * 500})
			}
		}
		if rng.Intn(3) == 0 { // sync at random intervals
			if err := r.Apply(w.DeltaSince(r.Version())); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	}
	if err := r.Apply(w.DeltaSince(r.Version())); err != nil {
		t.Fatal(err)
	}

	if r.Len() != w.Len() {
		t.Fatalf("replica has %d entities, world has %d", r.Len(), w.Len())
	}
	if r.Version() != w.Version() {
		t.Fatalf("replica at %d, world at %d", r.Version(), w.Version())
	}
	for id, e := range w.entities {
		re, ok := r.Get(id)
		if !ok {
			t.Fatalf("entity %d missing from replica", id)
		}
		if re != *e {
			t.Fatalf("entity %d diverged: world %+v vs replica %+v", id, *e, re)
		}
	}
}

func TestReplicaVersionGap(t *testing.T) {
	w := New(DefaultConfig())
	r := NewReplica()
	r.Apply(w.Snapshot())
	w.SpawnAvatar(1, Vec2{1, 1})
	w.SpawnAvatar(2, Vec2{2, 2})
	d := w.DeltaSince(w.Version() - 1) // skips the first spawn
	if err := r.Apply(d); err == nil {
		t.Fatal("gap delta accepted")
	}
	// Recovery: apply a snapshot.
	if err := r.Apply(w.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatal("snapshot recovery incomplete")
	}
}

func TestCompactForcesSnapshot(t *testing.T) {
	w := New(DefaultConfig())
	w.SpawnAvatar(1, Vec2{1, 1})
	v1 := w.Version()
	w.SpawnAvatar(2, Vec2{2, 2})
	w.Compact(w.Version())
	if w.JournalLen() != 0 {
		t.Fatal("compact left journal entries")
	}
	d := w.DeltaSince(v1)
	if !d.Full {
		t.Fatal("delta for pre-compaction version should be a snapshot")
	}
	r := NewReplica()
	if err := r.Apply(d); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatal("snapshot incomplete")
	}
}

func TestDeltaWireSizeScalesWithChanges(t *testing.T) {
	w := New(DefaultConfig())
	for i := int64(1); i <= 50; i++ {
		w.SpawnAvatar(i, Vec2{float64(i), float64(i)})
	}
	v := w.Version()
	w.Apply([]Action{{Player: 1, Kind: ActionMove, Target: Vec2{9, 9}}})
	small := w.DeltaSince(v).WireSize()
	full := w.Snapshot().WireSize()
	if small >= full {
		t.Fatalf("one-change delta (%dB) not smaller than snapshot (%dB)", small, full)
	}
	if small <= 0 {
		t.Fatal("non-positive wire size")
	}
}

func TestVisibleMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := sim.NewRand(seed)
		w := New(DefaultConfig())
		for i := int64(1); i <= 40; i++ {
			w.SpawnAvatar(i, Vec2{rng.Float64() * 2000, rng.Float64() * 2000})
		}
		r := NewReplica()
		if err := r.Apply(w.Snapshot()); err != nil {
			return false
		}
		vp := Viewport{Center: Vec2{rng.Float64() * 2000, rng.Float64() * 2000}, Radius: 300}
		got := r.Visible(vp)
		want := 0
		for _, e := range w.entities {
			if e.Pos.Sub(vp.Center).Len() <= vp.Radius {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].ID >= got[i].ID {
				return false // deterministic order violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRectContainsProperty(t *testing.T) {
	f := func(x, y float64) bool {
		r := Rect{Min: Vec2{0, 0}, Max: Vec2{100, 100}}
		p := Vec2{math.Mod(math.Abs(x), 200), math.Mod(math.Abs(y), 200)}
		in := r.Contains(p)
		wantIn := p.X >= 0 && p.X < 100 && p.Y >= 0 && p.Y < 100
		return in == wantIn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInterestFilteredDelta: filtered deltas carry only in-view changes and
// a filtered replica converges for the subscribed region.
func TestInterestFilteredDelta(t *testing.T) {
	rng := sim.NewRand(4)
	w := New(DefaultConfig())
	view := Rect{Min: Vec2{0, 0}, Max: Vec2{3000, 3000}}
	for i := int64(1); i <= 60; i++ {
		w.SpawnAvatar(i, Vec2{rng.Float64() * 10000, rng.Float64() * 10000})
	}
	r := NewReplica()
	if err := r.ApplyFiltered(w.DeltaSinceWithin(0, view), view); err != nil {
		t.Fatal(err)
	}
	// The filtered snapshot is a strict subset of the full world.
	if r.Len() >= w.Len() {
		t.Fatalf("filtered replica has %d entities, world %d", r.Len(), w.Len())
	}
	for i := 0; i < 200; i++ {
		p := int64(1 + rng.Intn(60))
		w.Apply([]Action{{Player: p, Kind: ActionMove,
			Target: Vec2{rng.Float64() * 10000, rng.Float64() * 10000}}})
		w.Step(0.5)
		if err := r.ApplyFiltered(w.DeltaSinceWithin(r.Version(), view), view); err != nil {
			t.Fatal(err)
		}
	}
	// Every in-view world entity is present and exact; nothing out-of-view
	// lingers.
	for id, e := range w.entities {
		re, ok := r.Get(id)
		if view.Contains(e.Pos) {
			if !ok || re != *e {
				t.Fatalf("in-view entity %d missing or stale", id)
			}
		} else if ok {
			t.Fatalf("out-of-view entity %d lingers in filtered replica", id)
		}
	}
	// Filtered updates are smaller than full updates.
	w.Apply([]Action{{Player: 1, Kind: ActionStop}})
	v := w.Version() - 1
	if w.DeltaSinceWithin(v, view).WireSize() > w.DeltaSince(v).WireSize() {
		t.Fatal("filtered delta larger than full delta")
	}
}

func TestReplicaAvatarIndex(t *testing.T) {
	w := New(DefaultConfig())
	r := NewReplica()
	r.Apply(w.Snapshot())
	w.SpawnAvatar(9, Vec2{100, 100})
	w.SpawnObject(Vec2{200, 200})
	r.Apply(w.DeltaSince(r.Version()))
	av, ok := r.Avatar(9)
	if !ok || av.Owner != 9 || av.Kind != KindAvatar {
		t.Fatalf("avatar lookup failed: %+v %v", av, ok)
	}
	if _, ok := r.Avatar(10); ok {
		t.Fatal("phantom avatar")
	}
	// Removal clears the index.
	id := av.ID
	w.Remove(id)
	r.Apply(w.DeltaSince(r.Version()))
	if _, ok := r.Avatar(9); ok {
		t.Fatal("avatar index survived removal")
	}
	// Full snapshot rebuilds the index.
	w.SpawnAvatar(9, Vec2{1, 1})
	r2 := NewReplica()
	r2.Apply(w.Snapshot())
	if _, ok := r2.Avatar(9); !ok {
		t.Fatal("snapshot did not rebuild avatar index")
	}
}
