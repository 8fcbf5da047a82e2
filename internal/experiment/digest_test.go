package experiment

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/metrics"
)

// figureDigestFile is the table TestFigureDigests holds every registered
// figure to. A row is "<figure> <shape> <seed> <figureDigest>", followed by
// one tab-led line per series: its label, a tab, and a four-hex-digit code
// per point, so a failure can name the first x that moved. A deliberate
// re-record is an edit of the rows the failure prints.
const figureDigestFile = "testdata/figure_digests.txt"

// digestShape is one world size the table pins.
type digestShape struct {
	name       string
	players    int
	supernodes int
	horizon    time.Duration
}

// smallShape is `cloudfog-sim -players 2000 -supernodes 150 -horizon 18s`:
// all twelve figures in about a second.
var smallShape = digestShape{name: "small", players: 2000, supernodes: 150, horizon: 18 * time.Second}

// TestFigureDigests runs every registered figure on the small world at seeds
// 2026 and 7, serially and on a two-worker sweep pool, and requires each
// figure's bytes to match its row of the table: no change that claims to
// move no byte can move one unnoticed.
func TestFigureDigests(t *testing.T) {
	checkFigureDigests(t, smallShape, []int64{2026, 7}, []int{1, 2})
}

// checkFigureDigests runs every figure on the shape's world at each seed and
// worker count and compares it with the table.
func checkFigureDigests(t *testing.T, shape digestShape, seeds []int64, workers []int) {
	table := readFigureDigests(t)
	for _, seed := range seeds {
		for _, nw := range workers {
			cfg := Default(seed)
			cfg.Players = shape.players
			cfg.Supernodes = shape.supernodes
			cfg.SweepWorkers = nw
			w, err := NewWorld(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, fig := range Figures() {
				res, err := fig.Run(w, RunOptions{Horizon: shape.horizon})
				if err != nil {
					t.Fatalf("%s seed %d, %d workers: %v", fig.Name, seed, nw, err)
				}
				got := recordDigest(fig, res)
				key := digestKey{fig.Name, shape.name, seed}
				want, ok := table[key]
				if !ok {
					t.Errorf("%s %s seed %d has no row in %s; its bytes read:\n%s",
						fig.Name, shape.name, seed, figureDigestFile, got.format(key))
					continue
				}
				if got.digest != want.digest {
					t.Errorf("%s %s seed %d, %d workers: %s\nthe figure now reads:\n%s",
						fig.Name, shape.name, seed, nw, firstMove(*want, got), got.format(key))
				}
			}
		}
	}
}

// digestKey names one row of the table.
type digestKey struct {
	figure, shape string
	seed          int64
}

// digestRow is a figure's digest and, per series, its label and point codes.
type digestRow struct {
	digest string
	series []seriesCodes
}

type seriesCodes struct {
	label string
	codes []string
	xs    []float64 // a fresh run's x values; the table keeps none
}

// recordDigest digests a figure result the way its bytes print: the title,
// then each series, or for a latency figure each system's mean, median and
// p90 in nanoseconds as points 0, 1 and 2.
func recordDigest(fig Figure, res FigureResult) digestRow {
	title := fig.Title
	if res.Title != "" {
		title = res.Title
	}
	series := res.Series
	for _, r := range res.Latency {
		series = append(series, metrics.Series{Label: r.System, Points: []metrics.Point{
			{X: 0, Y: float64(r.Mean)}, {X: 1, Y: float64(r.Median)}, {X: 2, Y: float64(r.P90)},
		}})
	}
	row := digestRow{digest: figureDigest(title, series)}
	for _, s := range series {
		sc := seriesCodes{label: s.Label}
		for _, p := range s.Points {
			sc.codes = append(sc.codes, pointCode(p))
			sc.xs = append(sc.xs, p.X)
		}
		row.series = append(row.series, sc)
	}
	return row
}

// pointCode is sixteen bits of a point's X and Y: enough to say which point
// moved once the figure's digest says one did.
func pointCode(p metrics.Point) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%x %x", math.Float64bits(p.X), math.Float64bits(p.Y))
	return fmt.Sprintf("%04x", h.Sum32()&0xffff)
}

// format prints the row as the table holds it.
func (r digestRow) format(k digestKey) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %d %s\n", k.figure, k.shape, k.seed, r.digest)
	for _, s := range r.series {
		fmt.Fprintf(&b, "\t%s\t%s\n", s.label, strings.Join(s.codes, " "))
	}
	return b.String()
}

// firstMove names the first series and point at which got departs from want.
func firstMove(want, got digestRow) string {
	for i, gs := range got.series {
		if i >= len(want.series) {
			return fmt.Sprintf("series %q is new", gs.label)
		}
		ws := want.series[i]
		if ws.label != gs.label {
			return fmt.Sprintf("series %d is %q, was %q", i, gs.label, ws.label)
		}
		for j, c := range gs.codes {
			if j >= len(ws.codes) {
				return fmt.Sprintf("series %q gained a point at x=%g", gs.label, gs.xs[j])
			}
			if c != ws.codes[j] {
				return fmt.Sprintf("series %q moved first at x=%g", gs.label, gs.xs[j])
			}
		}
		if len(ws.codes) > len(gs.codes) {
			return fmt.Sprintf("series %q lost its points from %d", gs.label, len(gs.codes))
		}
	}
	if len(want.series) > len(got.series) {
		return fmt.Sprintf("series %q is gone", want.series[len(got.series)].label)
	}
	return "the title moved, or a point moved that its code missed"
}

// readFigureDigests parses the table.
func readFigureDigests(t *testing.T) map[digestKey]*digestRow {
	t.Helper()
	f, err := os.Open(figureDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	table := make(map[digestKey]*digestRow)
	var cur *digestRow
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "\t"):
			label, codes, ok := strings.Cut(line[1:], "\t")
			if !ok || cur == nil {
				t.Fatalf("%s:%d: a series line outside a row: %q", figureDigestFile, n, line)
			}
			cur.series = append(cur.series, seriesCodes{label: label, codes: strings.Fields(codes)})
		default:
			var k digestKey
			cur = new(digestRow)
			if _, err := fmt.Sscanf(line, "%s %s %d %s", &k.figure, &k.shape, &k.seed, &cur.digest); err != nil {
				t.Fatalf("%s:%d: %v: %q", figureDigestFile, n, err, line)
			}
			if _, dup := table[k]; dup {
				t.Fatalf("%s:%d: a second row for %v", figureDigestFile, n, k)
			}
			table[k] = cur
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return table
}
