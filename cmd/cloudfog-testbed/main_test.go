package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmallTestbedRun is the binary's smoke test: a small loopback cluster
// regenerates the four figures in-process, and every latency that entered
// them was a measured round trip, none a model fallback.
func TestSmallTestbedRun(t *testing.T) {
	for name, value := range map[string]string{"players": "60", "supernodes": "20", "servers": "2"} {
		f := flag.Lookup(name)
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = flag.Set(f.Name, f.DefValue) })
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
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, printed)
	}
	for _, want := range []string{"Figure 6(a)", "Figure 6(b)", "Figure 7(b)", "Figure 8(b)", "model fallbacks: 0\n"} {
		if !strings.Contains(string(printed), want) {
			t.Errorf("output lacks %q:\n%s", want, printed)
		}
	}
}
