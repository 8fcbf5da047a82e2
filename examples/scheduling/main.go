// Scheduling: walk the deadline-driven sender buffer (paper §III-C,
// Figure 4). A supernode with a slow uplink queues segments from games
// with different deadlines and loss tolerances: EDF ordering puts tight
// deadlines first, and when a segment's estimated response latency
// (Eq. 12) exceeds its requirement, packets are dropped across the queue
// proportionally to loss tolerance × waiting-time decay (Eq. 14).
package main

import (
	"fmt"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/sched"
	"cloudfog/internal/stream"
)

func main() {
	streamCfg := stream.Config{SegmentDuration: 100 * time.Millisecond, PacketSize: 1500}
	cfg := sched.DefaultConfig()
	cfg.MaxQueueDelay = 0 // let the demo build visible pressure
	// 3 Mbps uplink: a level-5 segment (22,500 B) takes 60 ms to send.
	buf := sched.NewBuffer(cfg, streamCfg, 3_000_000)

	fmt.Println("== EDF ordering ==")
	games := []int{5, 3, 1, 4, 2}
	for i, id := range games {
		g, err := game.ByID(id)
		if err != nil {
			panic(err)
		}
		seg := new(stream.Segment)
		stream.NewEncoder(streamCfg, int64(i), g.Quality()).EncodeInto(seg, 0, 0, g)
		buf.Enqueue(0, seg)
		fmt.Printf("  enqueued %-10s segment: deadline t_a=%-6v loss tolerance %.2f, %2d packets\n",
			g.Name, seg.ExpectedArrival(), seg.LossTolerance, seg.Packets)
	}
	fmt.Println("\n  transmission order (earliest deadline first):")
	for {
		seg := buf.DequeueAny(0)
		if seg == nil {
			break
		}
		g, _ := game.ByID(gameOf(seg))
		fmt.Printf("    -> %-10s (t_a=%v, %d of %d packets survive)\n",
			g.Name, seg.ExpectedArrival(), seg.RemainingPackets(), seg.Packets)
	}

	fmt.Println("\n== Eq. 14 drop allocation (Figure 4's worked example) ==")
	// Six packets must go; tolerances (0.6, 0.2, 0.5) with decay factors
	// (0.5, 1.0, 0.2) split them 3 / 2 / 1.
	weights := []float64{0.6 * 0.5, 0.2 * 1.0, 0.5 * 0.2}
	budgets := []int{10, 10, 10}
	alloc := sched.AllocateDrops(weights, budgets, 6)
	for k, d := range alloc {
		fmt.Printf("  segment %d: weight %.2f -> drop %d packets\n", k+1, weights[k], d)
	}

	fmt.Println("\n== deadline pressure on a congested uplink ==")
	buf2 := sched.NewBuffer(cfg, streamCfg, 3_000_000)
	now := time.Duration(0)
	for i := 0; i < 8; i++ {
		g, _ := game.ByID(i%5 + 1)
		seg := new(stream.Segment)
		stream.NewEncoder(streamCfg, int64(100+i), g.Quality()).EncodeInto(seg, now, now, g)
		buf2.Enqueue(now, seg)
		now += 10 * time.Millisecond
	}
	enq, _, dropped, fully, repairs := buf2.Stats()
	fmt.Printf("  %d segments enqueued, %d deadline repairs ran, %d packets dropped (%d segments fully)\n",
		enq, repairs, dropped, fully)
	fmt.Printf("  queue now holds %d bytes (%.0f ms at 3 Mbps)\n",
		buf2.QueuedBytes(), float64(buf2.QueuedBytes()*8)/3_000_000*1000)
}

// gameOf recovers the game id from a segment's latency requirement.
func gameOf(seg *stream.Segment) int {
	for _, g := range game.Games() {
		if g.NetworkBudget() == seg.LatencyReq {
			return g.ID
		}
	}
	return 0
}
