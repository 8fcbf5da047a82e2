package main

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runWith runs the command in-process under the given flags and returns what
// it printed and run's error. Flags go back to their defaults when the test
// ends.
func runWith(t *testing.T, flags map[string]string) (string, error) {
	t.Helper()
	for name, value := range flags {
		f := flag.Lookup(name)
		if f == nil {
			t.Fatalf("no flag -%s", name)
		}
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
	return string(printed), runErr
}

// TestWillingContributorsRiseWithReward is the smoke test: the default run
// prints the eight Eq. 1 rows, and a higher reward c_s never leaves fewer
// contributors willing.
func TestWillingContributorsRiseWithReward(t *testing.T) {
	printed, err := runWith(t, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^  (\d\.\d\d) +(\d+) / 200 `).FindAllStringSubmatch(printed, -1)
	if len(rows) != 8 {
		t.Fatalf("want 8 incentive rows, got %d:\n%s", len(rows), printed)
	}
	prev := -1
	for _, row := range rows {
		willing, _ := strconv.Atoi(row[2])
		if willing < prev {
			t.Fatalf("c_s=%s: %d willing, fewer than the %d at a lower reward", row[1], willing, prev)
		}
		prev = willing
	}
}

// TestRejectsBadFlags: a negative pool, a target below one player or a rate
// that is not a finite number is an error naming the mistake, not a panic, a
// plan for nobody or a table of NaNs.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct{ flag, value, want string }{
		{"candidates", "-1", "-candidates -1"},
		{"target", "-5", "target of -5 players"},
		{"stream", "NaN", "stream rate R NaN"},
		{"reward", "+Inf", "reward c_s +Inf"},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			printed, err := runWith(t, map[string]string{tc.flag: tc.value})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("-%s %s: err %v, want one naming %q; printed:\n%s", tc.flag, tc.value, err, tc.want, printed)
			}
		})
	}
}
