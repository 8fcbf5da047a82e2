package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cloudfog/internal/experiment"
)

// runWith runs the simulator in-process under the given flags and returns
// what it printed; a run that fails fails the test.
func runWith(t *testing.T, flags map[string]string) string {
	t.Helper()
	printed, err := runSim(t, flags)
	if err != nil {
		t.Fatal(err)
	}
	return printed
}

// runSim is runWith handing back run's error. Flags go back to their defaults
// when the test ends.
func runSim(t *testing.T, flags map[string]string) (string, error) {
	t.Helper()
	for name, value := range flags {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = flag.Set(f.Name, f.DefValue) }) // DefValue always parses
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	runErr := run()
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// scaleSmoke is the -scale run `make chaos` makes, less its shard count.
func scaleSmoke(extra map[string]string) map[string]string {
	flags := map[string]string{
		"scale": "true", "players": "1500", "supernodes": "100",
		"detector": "phi", "overload": "true", "horizon": "20s", "epoch": "10s",
	}
	for name, value := range extra {
		flags[name] = value
	}
	return flags
}

// TestScaleOutputIsShardInvariant is the binary's smoke test: the -scale run
// `make chaos` makes, at one shard and at four, prints the same bytes once
// what describes the run instead of the result is masked — the four
// timing and memory fields and the shard count beside them.
func TestScaleOutputIsShardInvariant(t *testing.T) {
	perRun := regexp.MustCompile(`(shards|wall|world|mem|live_per_player)=\S+`)
	var want string
	for _, shards := range []string{"1", "4"} {
		printed := runWith(t, scaleSmoke(map[string]string{"shards": shards}))
		for _, field := range []string{"shards=" + shards + " epochs=2 wall=", " world=", " mem=", " live_per_player=", "kills=", "sampled continuity: "} {
			if !strings.Contains(printed, field) {
				t.Fatalf("-shards %s: output lacks %q:\n%s", shards, field, printed)
			}
		}
		if got := perRun.ReplaceAllString(printed, "$1="); shards == "1" {
			want = got
		} else if got != want {
			t.Fatalf("-shards %s prints\n%s\n-shards 1 printed\n%s", shards, got, want)
		}
	}
}

// TestScaleWritesReport: -scale ends in the same -report the figure loop
// writes — run fails on an unbalanced ledger — not in an early return.
func TestScaleWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	printed := runWith(t, scaleSmoke(map[string]string{"shards": "2", "report": path}))
	if !strings.Contains(printed, "observability report written to "+path) {
		t.Fatalf("-scale -report did not announce its report:\n%s", printed)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot.Counters["cloudfog_assign_joins_fog_total"] == 0 {
		t.Fatalf("report carries no fog joins: %v", rep.Snapshot.Counters)
	}
}

func TestScaleHonoursCSV(t *testing.T) {
	printed := runWith(t, scaleSmoke(map[string]string{"csv": "true"}))
	if !strings.Contains(printed, "t (s),served,fog-served,unserved,coverage\n10,") {
		t.Fatalf("-scale -csv printed no comma-separated table:\n%s", printed)
	}
}

// TestScaleRefusesRecord: run tests -record before -scale, and a recording
// takes its figures from -figures alone, so the pair would record every figure
// and no scaling run; it is an error that names the invocation that records one.
func TestScaleRefusesRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scale.flight")
	_, err := runSim(t, scaleSmoke(map[string]string{"record": path}))
	if err == nil || !strings.Contains(err.Error(), "-figures figscale -record") {
		t.Fatalf("-scale -record: err = %v, want one naming -figures figscale -record", err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("-scale -record wrote a recording")
	}
}

// TestRejectsNegativeSettings: a negative worker count, horizon or epoch is
// refused by name instead of run as the default.
func TestRejectsNegativeSettings(t *testing.T) {
	small := func(name, value string) map[string]string {
		return map[string]string{"players": "200", "supernodes": "10", "figures": "fig10a", name: value}
	}
	for _, c := range []struct {
		flags map[string]string
		want  string
	}{
		{small("shards", "-3"), "Shards"},
		{small("sweep-workers", "-2"), "SweepWorkers"},
		{small("horizon", "-1s"), "negative horizon"},
		{scaleSmoke(map[string]string{"epoch": "-1s"}), "negative scale epoch"},
	} {
		t.Run(c.want, func(t *testing.T) { // a subtest puts the flags back after each row
			if _, err := runSim(t, c.flags); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%v: err = %v, want one naming %q", c.flags, err, c.want)
			}
		})
	}
}

// TestRejectsWorldWithoutSupernodes: a world needs a supernode to place,
// and a count below one is refused by name instead of panicking in world
// generation or the first figure.
func TestRejectsWorldWithoutSupernodes(t *testing.T) {
	for _, flags := range []map[string]string{
		{"supernodes": "-1", "players": "100"},
		{"supernodes": "0", "players": "200", "figures": "fig10a"},
	} {
		if _, err := runSim(t, flags); err == nil || !strings.Contains(err.Error(), "Supernodes") {
			t.Errorf("%v: err = %v, want one naming Supernodes", flags, err)
		}
	}
}

// TestFiguresUsageNamesEveryFigure: -figures' help is built from the
// registry, so no registered figure goes unlisted.
func TestFiguresUsageNamesEveryFigure(t *testing.T) {
	usage := flag.Lookup("figures").Usage
	for _, name := range experiment.FigureNames() {
		if !strings.Contains(usage, name) {
			t.Errorf("-figures usage does not name %s: %q", name, usage)
		}
	}
}
