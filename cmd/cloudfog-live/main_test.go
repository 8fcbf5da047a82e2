package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDemoLedgerUnderTotalOutage runs the flat-flag demo in-process with
// every supernode partitioned away after a second: both players must finish
// on the cloud's direct stream, and the bandwidth ledger must count the
// updates the cloud sent the killed supernodes and its direct video.
func TestDemoLedgerUnderTotalOutage(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "all-down.json")
	if err := os.WriteFile(profile, []byte(`{"name":"all-down","seed":1,"duration":"5s","specs":[
		{"kind":"partition","start":"1s","region":{"x0":-100000,"y0":-100000,"x1":100000,"y1":100000}}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	for name, value := range map[string]string{"players": "2", "supernodes": "2", "duration": "5s", "chaos": profile} {
		old := flag.Lookup(name).Value.String()
		if err := flag.Set(name, value); err != nil {
			t.Fatal(err)
		}
		defer flag.Set(name, old)
	}

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run()
	os.Stdout = stdout
	w.Close()
	text := <-out
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, text)
	}
	if !strings.Contains(text, "(2 to the cloud)") {
		t.Fatalf("both players should end on the cloud:\n%s", text)
	}
	var updKB, directKB float64
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), "bandwidth ledger: "); ok {
			fmt.Sscanf(line, "cloud shipped %f KB of updates and %f KB of direct video", &updKB, &directKB)
		}
	}
	if updKB <= 0 || directKB <= 0 {
		t.Fatalf("ledger counts %.1f KB of updates and %.1f KB of direct video, want both positive:\n%s", updKB, directKB, text)
	}
}

// TestDemoRejectsBadFlags: a count or rate below one and a non-positive
// session length are refused by name before the demo binds a socket.
func TestDemoRejectsBadFlags(t *testing.T) {
	for _, row := range []struct{ name, value string }{
		{"players", "0"}, {"players", "-1"}, {"supernodes", "0"}, {"supernodes", "-2"},
		{"fps", "0"}, {"duration", "0s"}, {"duration", "-1s"},
	} {
		t.Run(row.name+"="+row.value, func(t *testing.T) {
			old := flag.Lookup(row.name).Value.String()
			if err := flag.Set(row.name, row.value); err != nil {
				t.Fatal(err)
			}
			defer flag.Set(row.name, old)
			if err := run(); err == nil || !strings.Contains(err.Error(), "-"+row.name) {
				t.Fatalf("-%s %s: err = %v, want one naming -%s", row.name, row.value, err, row.name)
			}
		})
	}
}
