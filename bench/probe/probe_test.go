package probe

import (
	"context"
	"testing"
	"time"

	"cloudfog/internal/live"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// TestProbeAgainstLiveDeployment runs a probe player and an observer against
// an in-process cloud and supernode: the stream must carry at least 97% of
// fps × duration segments in order, and every action stamp must come back,
// first on the observer's update subscription and then on the stream.
func TestProbeAgainstLiveDeployment(t *testing.T) {
	const (
		fps      = 30
		duration = 1500 * time.Millisecond
		every    = 47 * time.Millisecond
	)
	cloud, err := live.NewCloud(live.Config{Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: time.Second / fps})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := live.NewSupernode(live.Config{
		Role: live.RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(), FPS: fps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	obs, err := DialObserver(ctx, cloud.Addr(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer obs.Close()
	p, err := DialPlayer(ctx, cloud.Addr(), sn.Addr(), proto.JoinStream{
		Player: 7, GameID: 4, ViewX: 5000, ViewY: 5000, ViewR: 600, LevelCap: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	start := time.Now()
	before := p.Segments()
	var stamps []time.Duration
	for due := start; due.Before(start.Add(duration)); due = due.Add(every) {
		time.Sleep(time.Until(due))
		stamp := time.Duration(len(stamps) + 1)
		if err := p.Act(stamp, world.Action{Kind: world.ActionMove, Target: world.Vec2{X: 100, Y: 100}}); err != nil {
			t.Fatal(err)
		}
		stamps = append(stamps, stamp)
	}
	time.Sleep(time.Until(start.Add(duration)))
	got := p.Segments() - before
	if want := int64(0.97 * fps * duration.Seconds()); got < want {
		t.Errorf("%d segments in %v, want at least %d", got, duration, want)
	}

	// The last action needs up to a cloud tick and a render tick to return.
	time.Sleep(150 * time.Millisecond)
	if n := p.SeqBreaks(); n != 0 {
		t.Errorf("%d segments arrived out of sequence", n)
	}
	streamed, observed := p.Echoes(), obs.Echoes(p.ID)
	for _, stamp := range stamps {
		seen, ok := First(observed, stamp)
		if !ok {
			t.Fatalf("stamp %d never left the cloud", stamp)
		}
		back, ok := First(streamed, stamp)
		if !ok {
			t.Fatalf("stamp %d never came back on the stream", stamp)
		}
		if back.Before(seen) {
			t.Errorf("stamp %d reached the player %v before it left the cloud", stamp, seen.Sub(back))
		}
	}
	if obs.Deltas() < int64(0.9*fps*duration.Seconds()) {
		t.Errorf("observer saw %d deltas in %v", obs.Deltas(), duration)
	}
}

func TestJoinOnceSeesAckThenSegment(t *testing.T) {
	cloud, err := live.NewCloud(live.Config{Role: live.RoleCloud, Addr: "127.0.0.1:0", Tick: time.Second / 30})
	if err != nil {
		t.Fatal(err)
	}
	defer cloud.Close()
	sn, err := live.NewSupernode(live.Config{
		Role: live.RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: cloud.Addr(), FPS: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	jt, err := JoinOnce(ctx, sn.Addr(), proto.JoinStream{Player: 9, GameID: 1, ViewX: 1, ViewY: 1, ViewR: 600, LevelCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(jt.Dialed.Before(jt.Joined) && jt.Joined.Before(jt.Acked) && jt.Acked.Before(jt.First)) {
		t.Errorf("boundaries out of order: %+v", jt)
	}
	if _, err := JoinOnce(ctx, sn.Addr(), proto.JoinStream{Player: 9, GameID: 99}); err == nil {
		t.Error("join for an unknown game was not refused")
	}
}
