// Package game defines the game genres and the video-quality ladder that the
// CloudFog paper evaluates with (its Figure 2), together with each game's
// QoE tolerances: response-latency requirement, latency tolerance degree ρ,
// and packet-loss tolerance rate L̃_t. Different genres tolerate delay and
// loss differently (Lee et al., NetGames'12 — the paper's ref [11]); both
// proposed strategies key off these per-game tolerances.
package game

import (
	"fmt"
	"time"
)

// FrameRate is the game-video frame rate used throughout the evaluation
// (OnLive streams at 30 fps; paper §IV).
const FrameRate = 30

// PlayoutDelay is the non-network share of the 100 ms response budget:
// 20 ms attributed to client playout plus cloud processing (paper §I, §IV).
const PlayoutDelay = 20 * time.Millisecond

// GeneralLatencyRequirement is the overall response-latency bound at which
// players begin to notice delay (100 ms; paper §I).
const GeneralLatencyRequirement = 100 * time.Millisecond

// QualityLevel is one row of the paper's Figure 2: an encoding operating
// point with its resolution, bitrate, and the response-latency requirement
// it can serve.
type QualityLevel struct {
	Level            int           // 1 (lowest) .. 5 (highest)
	Width, Height    int           // video resolution in pixels
	Bitrate          int64         // encoding bitrate in bits/second
	LatencyReq       time.Duration // network latency requirement this level is matched to
	LatencyTolerance float64       // latency tolerance degree ρ in [0,1]
}

// String formats the level like the paper's table row.
func (q QualityLevel) String() string {
	return fmt.Sprintf("L%d %dx%d @%dkbps (req %v, rho %.1f)",
		q.Level, q.Width, q.Height, q.Bitrate/1000, q.LatencyReq, q.LatencyTolerance)
}

// ladder is Figure 2 of the paper, lowest quality first.
var ladder = []QualityLevel{
	{Level: 1, Width: 288, Height: 216, Bitrate: 300_000, LatencyReq: 30 * time.Millisecond, LatencyTolerance: 0.6},
	{Level: 2, Width: 384, Height: 216, Bitrate: 500_000, LatencyReq: 50 * time.Millisecond, LatencyTolerance: 0.7},
	{Level: 3, Width: 640, Height: 480, Bitrate: 800_000, LatencyReq: 70 * time.Millisecond, LatencyTolerance: 0.8},
	{Level: 4, Width: 720, Height: 486, Bitrate: 1_200_000, LatencyReq: 90 * time.Millisecond, LatencyTolerance: 0.9},
	{Level: 5, Width: 1280, Height: 720, Bitrate: 1_800_000, LatencyReq: 110 * time.Millisecond, LatencyTolerance: 1.0},
}

// Ladder returns the quality ladder (Figure 2), lowest quality first. The
// returned slice is a copy; callers may not mutate the canonical table.
func Ladder() []QualityLevel {
	out := make([]QualityLevel, len(ladder))
	copy(out, ladder)
	return out
}

// LevelAt returns the quality level with the given 1-based level number.
func LevelAt(level int) (QualityLevel, error) {
	if level < 1 || level > len(ladder) {
		return QualityLevel{}, fmt.Errorf("game: quality level %d out of range [1,%d]", level, len(ladder))
	}
	return ladder[level-1], nil
}

// MustLevelAt is LevelAt for statically valid levels; it panics on error.
func MustLevelAt(level int) QualityLevel {
	q, err := LevelAt(level)
	if err != nil {
		panic(err)
	}
	return q
}

// HighestLevelWithin returns the highest quality level whose latency
// requirement does not exceed req — the starting encoding point for a game
// with response-latency requirement req (paper §III-B: a 90 ms game starts
// at 1200 kbps / level 4). If even the lowest level's requirement exceeds
// req, level 1 is returned: the system cannot encode below the ladder.
func HighestLevelWithin(req time.Duration) QualityLevel {
	best := ladder[0]
	for _, q := range ladder[1:] {
		if q.LatencyReq <= req {
			best = q
		}
	}
	return best
}

// AdjustUpFactor returns β = max over i of (b_{i+1} - b_i) / b_i (Eq. 10):
// the largest relative bitrate step in the ladder. For Figure 2 this is the
// 300→500 kbps step, β = 2/3.
func AdjustUpFactor() float64 {
	beta := 0.0
	for i := 0; i+1 < len(ladder); i++ {
		step := float64(ladder[i+1].Bitrate-ladder[i].Bitrate) / float64(ladder[i].Bitrate)
		if step > beta {
			beta = step
		}
	}
	return beta
}

// Game is one of the five evaluated games. Each game is matched to a ladder
// row: its response-latency requirement is that row's requirement, and its
// latency tolerance degree ρ is that row's tolerance. Loss tolerance is the
// per-game packet-loss tolerance rate L̃_t used by the sender scheduler.
type Game struct {
	ID            int
	Name          string
	LatencyReq    time.Duration // network latency requirement (Fig. 2 column)
	RhoLatency    float64       // latency tolerance degree ρ ∈ [0,1]
	LossTolerance float64       // packet loss tolerance rate L̃_t ∈ [0,1]
	StartLevel    int           // ladder level matched to LatencyReq
}

// games mirrors the paper's five evaluated games, one per ladder row. Loss
// tolerances follow the genre ordering of ref [11]: fast-paced games (strict
// latency) tolerate some loss; slow-paced games tolerate more of both.
var games = []Game{
	{ID: 1, Name: "shooter", LatencyReq: 30 * time.Millisecond, RhoLatency: 0.6, LossTolerance: 0.10, StartLevel: 1},
	{ID: 2, Name: "racing", LatencyReq: 50 * time.Millisecond, RhoLatency: 0.7, LossTolerance: 0.15, StartLevel: 2},
	{ID: 3, Name: "action-rpg", LatencyReq: 70 * time.Millisecond, RhoLatency: 0.8, LossTolerance: 0.20, StartLevel: 3},
	{ID: 4, Name: "mmorpg", LatencyReq: 90 * time.Millisecond, RhoLatency: 0.9, LossTolerance: 0.30, StartLevel: 4},
	{ID: 5, Name: "strategy", LatencyReq: 110 * time.Millisecond, RhoLatency: 1.0, LossTolerance: 0.40, StartLevel: 5},
}

// Games returns the five evaluated games. The slice is a copy.
func Games() []Game {
	out := make([]Game, len(games))
	copy(out, games)
	return out
}

// ByID returns the game with the given 1-based ID.
func ByID(id int) (Game, error) {
	if id < 1 || id > len(games) {
		return Game{}, fmt.Errorf("game: id %d out of range [1,%d]", id, len(games))
	}
	return games[id-1], nil
}

// NetworkBudget returns the game's network latency budget. The paper's
// coverage sweeps use the Figure 2 latency column directly as the "network
// latency requirement" (30-110 ms), so the budget is LatencyReq itself.
func (g Game) NetworkBudget() time.Duration { return g.LatencyReq }

// ResponseRequirement returns the game's end-to-end response latency
// requirement L̃_r: the network budget plus the 20 ms playout/processing
// share (paper §IV: 100 ms total = 20 ms playout/processing + 80 ms
// network).
func (g Game) ResponseRequirement() time.Duration { return g.LatencyReq + PlayoutDelay }

// Quality returns the ladder row matched to the game's latency requirement.
func (g Game) Quality() QualityLevel { return MustLevelAt(g.StartLevel) }
