// Ratecontrol: walk the receiver-driven encoding rate adaptation (paper
// §III-B, Figure 3) through a congestion episode. A level-4 (1200 kbps)
// live stream loses bandwidth, the receiver's buffer occupancy r falls
// below θ/ρ for h₂ consecutive calculations, and the controller steps the
// encoder down the ladder; after the network recovers, sustained headroom
// (r above (1+β)/ρ for h₁ calculations) walks the quality back up.
package main

import (
	"fmt"
	"time"

	"cloudfog/internal/adapt"
	"cloudfog/internal/game"
)

func main() {
	g, err := game.ByID(4) // mmorpg: 90 ms budget, starts at 1200 kbps
	if err != nil {
		panic(err)
	}
	cfg := adapt.DefaultConfig()
	cfg.UpStreak = 30 // a short demo: 3 s of sustained headroom to go up
	var ctrl adapt.Controller
	ctrl.Init(cfg, g)

	fmt.Printf("game: %s (network budget %v, rho %.1f)\n", g.Name, g.NetworkBudget(), g.RhoLatency)
	fmt.Printf("thresholds: adjust down below r=%.2f, adjust up above r=%.2f\n\n",
		ctrl.DownThreshold(), ctrl.UpThreshold())

	// Available network bandwidth over time: healthy, congested, recovered.
	bandwidth := func(now time.Duration) (string, float64) {
		switch {
		case now < 4*time.Second:
			return "healthy", 1_500_000
		case now < 12*time.Second:
			return "congested", 600_000
		default:
			return "recovered", 2_000_000
		}
	}

	// A live stream: the encoder emits bitrate bytes/s into the sender
	// queue; the network forwards at most the available bandwidth; the
	// player consumes at the playback rate.
	const tick = 100 * time.Millisecond
	dt := tick.Seconds()
	segBytes := func() float64 { return float64(ctrl.Level().Bitrate) / 30 / 8 }
	senderQ := 0.0
	rxBuf := 2 * segBytes() // two-segment startup buffer

	fmt.Println("time     phase       bw(kbps)  level  r      event")
	up, down := 0, 0
	for now := tick; now <= 22*time.Second; now += tick {
		phase, bw := bandwidth(now)
		bitrate := float64(ctrl.Level().Bitrate)

		senderQ += bitrate / 8 * dt
		sent := bw / 8 * dt
		if sent > senderQ {
			sent = senderQ
		}
		senderQ -= sent
		rxBuf += sent
		play := bitrate / 8 * dt
		if play > rxBuf {
			play = rxBuf // playback stalls on an empty buffer
		}
		rxBuf -= play

		r := rxBuf / segBytes()
		decision := ctrl.Observe(r)
		switch decision {
		case adapt.AdjustedUp:
			up++
		case adapt.AdjustedDown:
			down++
		}
		switch {
		case decision != adapt.Hold:
			fmt.Printf("%-8v %-11s %6.0f    L%d     %5.2f  %s -> %d kbps\n",
				now, phase, bw/1000, ctrl.Level().Level, r, decision, ctrl.Level().Bitrate/1000)
		case now%(2*time.Second) == 0:
			fmt.Printf("%-8v %-11s %6.0f    L%d     %5.2f  hold\n",
				now, phase, bw/1000, ctrl.Level().Level, r)
		}
	}

	fmt.Printf("\ntotal adjustments: %d down, %d up (final level L%d @ %d kbps)\n",
		down, up, ctrl.Level().Level, ctrl.Level().Bitrate/1000)
}
