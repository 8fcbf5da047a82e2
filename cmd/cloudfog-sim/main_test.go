package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runWith runs the simulator in-process under the given flags and returns
// what it printed. Flags go back to their defaults when the test ends.
func runWith(t *testing.T, flags map[string]string) string {
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
	err = run()
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed)
}

// TestScaleOutputIsShardInvariant is the binary's smoke test: the -scale run
// `make chaos` makes, at one shard and at four, prints the same bytes once
// what describes the run instead of the result is masked — the three
// timing and memory fields, the shard count beside them, and the cross-shard
// line, which says of itself that it is a partition diagnostic.
func TestScaleOutputIsShardInvariant(t *testing.T) {
	perRun := regexp.MustCompile(`(shards|wall|world|mem)=\S+`)
	var want string
	for _, shards := range []string{"1", "4"} {
		printed := runWith(t, map[string]string{
			"scale": "true", "players": "1500", "supernodes": "100", "shards": shards,
			"detector": "phi", "overload": "true", "horizon": "20s", "epoch": "10s",
		})
		for _, field := range []string{"shards=" + shards + " epochs=2 wall=", " world=", " mem=", "kills=", "sampled continuity: "} {
			if !strings.Contains(printed, field) {
				t.Fatalf("-shards %s: output lacks %q:\n%s", shards, field, printed)
			}
		}
		var kept []string
		for _, line := range strings.Split(perRun.ReplaceAllString(printed, "$1="), "\n") {
			if !strings.HasPrefix(line, "cross-shard:") {
				kept = append(kept, line)
			}
		}
		if got := strings.Join(kept, "\n"); shards == "1" {
			want = got
		} else if got != want {
			t.Fatalf("-shards %s prints\n%s\n-shards 1 printed\n%s", shards, got, want)
		}
	}
}
