package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// corpus is the committed scaling recording, recorded at -shards 4.
const corpus = "../../examples/flight/sharded.flight"

// runWith runs the replayer in-process on path under the given flags and
// returns what it printed and run's error. Flags go back to their defaults
// when the test ends.
func runWith(t *testing.T, path string, flags map[string]string) (string, error) {
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
	runErr := run(path)
	os.Stdout = stdout
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(printed), runErr
}

// TestCorpusVerifies is the binary's smoke test, on the recording `make
// replay` gates on: it describes the file (a scaling run's RNG witness is two
// streams, whatever -shards recorded it), then re-runs it to the same bytes
// and balanced ledgers.
func TestCorpusVerifies(t *testing.T) {
	printed, err := runWith(t, corpus, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, printed)
	}
	for _, want := range []string{"shards=4", "2 RNG streams", "verified figscale", "replay: bit-identical", "ledgers: balanced"} {
		if !strings.Contains(printed, want) {
			t.Errorf("output lacks %q:\n%s", want, printed)
		}
	}
	printed, err = runWith(t, corpus, map[string]string{"describe": "true"})
	if err != nil || !strings.Contains(printed, "2 RNG streams") || strings.Contains(printed, "verified") {
		t.Errorf("-describe: error %v; want the inventory and no re-run:\n%s", err, printed)
	}
}

// TestWhatIfShardsChangesNothing: the worker count is the one knob that must
// not move a byte, so its what-if diff is empty — and -expect-diff, the guard
// `make replay` puts on the detector what-if, turns an empty diff into an error.
func TestWhatIfShardsChangesNothing(t *testing.T) {
	printed, err := runWith(t, corpus, map[string]string{"whatif": "shards=1"})
	if err != nil || !strings.Contains(printed, "no observable difference") {
		t.Fatalf("-whatif shards=1: error %v:\n%s", err, printed)
	}
	_, err = runWith(t, corpus, map[string]string{"whatif": "shards=1", "expect-diff": "true"})
	if err == nil || !strings.Contains(err.Error(), "changed nothing observable") {
		t.Fatalf("-whatif shards=1 -expect-diff: err = %v, want one saying nothing changed", err)
	}
}

// TestTruncatedRecordingNamesItsChunk: a recording cut short fails to load,
// with the chunk the bytes ran out in, and nothing is re-run.
func TestTruncatedRecordingNamesItsChunk(t *testing.T) {
	whole, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.flight")
	if err := os.WriteFile(cut, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	printed, err := runWith(t, cut, nil)
	if err == nil || !regexp.MustCompile(`chunk \d+ truncated`).MatchString(err.Error()) || printed != "" {
		t.Fatalf("half a recording: err = %v, printed %q; want a load error naming a chunk and no output", err, printed)
	}
}
