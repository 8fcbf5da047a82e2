//go:build figures

package experiment

import (
	"testing"
	"time"
)

// TestFigureDigestsDefaultScale is TestFigureDigests on the world
// `cloudfog-sim -figures all` runs with no size flags, at seed 2026 on the
// default sweep pool. The run takes about ten seconds, so it sits behind the
// figures build tag: `make figures` runs it, tier-1 does not.
func TestFigureDigestsDefaultScale(t *testing.T) {
	d := Default(2026)
	shape := digestShape{name: "default", players: d.Players, supernodes: d.Supernodes, horizon: time.Minute}
	checkFigureDigests(t, shape, []int64{2026}, []int{0})
}
