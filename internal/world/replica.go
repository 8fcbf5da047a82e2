package world

import (
	"fmt"
	"sort"
)

// Replica is a supernode's copy of the virtual world, kept current by
// applying the cloud's deltas (paper §III-A: the supernode "updates its
// virtual world accordingly" and then renders per-player views).
type Replica struct {
	entities map[EntityID]Entity
	byOwner  map[int64]EntityID
	version  uint64
}

// NewReplica returns an empty replica at version zero.
func NewReplica() *Replica {
	return &Replica{
		entities: make(map[EntityID]Entity),
		byOwner:  make(map[int64]EntityID),
	}
}

// Version returns the replica's current world version.
func (r *Replica) Version() uint64 { return r.version }

// Len returns the number of entities in the replica.
func (r *Replica) Len() int { return len(r.entities) }

// Get returns a copy of an entity and whether it exists.
func (r *Replica) Get(id EntityID) (Entity, bool) {
	e, ok := r.entities[id]
	return e, ok
}

// ErrVersionGap is returned when a delta does not continue from the
// replica's version; the supernode must request a snapshot.
type ErrVersionGap struct {
	Replica, DeltaFrom uint64
}

func (e ErrVersionGap) Error() string {
	return fmt.Sprintf("world: replica at version %d cannot apply delta from %d", e.Replica, e.DeltaFrom)
}

// ApplyFiltered ingests an interest-filtered delta: like Apply, but it also
// evicts held entities that have left the subscribed view (they changed but
// were filtered out, so their absence from Updated despite a newer world
// version means they are out of interest).
func (r *Replica) ApplyFiltered(d Delta, view Rect) error {
	if err := r.Apply(d); err != nil {
		return err
	}
	for id, e := range r.entities {
		if !view.Contains(e.Pos) {
			if e.Kind == KindAvatar {
				delete(r.byOwner, e.Owner)
			}
			delete(r.entities, id)
		}
	}
	return nil
}

// Apply ingests one delta. Full deltas replace the state; incremental
// deltas must continue exactly from the replica's version.
func (r *Replica) Apply(d Delta) error {
	if d.Full {
		r.entities = make(map[EntityID]Entity, len(d.Updated))
		r.byOwner = make(map[int64]EntityID)
		for _, e := range d.Updated {
			r.entities[e.ID] = e
			if e.Kind == KindAvatar {
				r.byOwner[e.Owner] = e.ID
			}
		}
		r.version = d.ToVersion
		return nil
	}
	if d.FromVersion != r.version {
		return ErrVersionGap{Replica: r.version, DeltaFrom: d.FromVersion}
	}
	for _, e := range d.Updated {
		r.entities[e.ID] = e
		if e.Kind == KindAvatar {
			r.byOwner[e.Owner] = e.ID
		}
	}
	for _, id := range d.Removed {
		if e, ok := r.entities[id]; ok && e.Kind == KindAvatar {
			delete(r.byOwner, e.Owner)
		}
		delete(r.entities, id)
	}
	r.version = d.ToVersion
	return nil
}

// Avatar returns a player's avatar, if the replica holds it.
func (r *Replica) Avatar(player int64) (Entity, bool) {
	id, ok := r.byOwner[player]
	if !ok {
		return Entity{}, false
	}
	e, ok := r.entities[id]
	return e, ok
}

// Viewport is a player's viewing position and range: the supernode renders
// only what the player can see (per-player views are what make fog
// rendering cheap relative to full game-state computation).
type Viewport struct {
	Center Vec2
	Radius float64
}

// Visible returns the entities inside the viewport, ordered by ID for
// deterministic rendering.
func (r *Replica) Visible(v Viewport) []Entity {
	out := make([]Entity, 0, 16)
	rr := v.Radius * v.Radius
	for _, e := range r.entities {
		d := e.Pos.Sub(v.Center)
		if d.X*d.X+d.Y*d.Y <= rr {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
