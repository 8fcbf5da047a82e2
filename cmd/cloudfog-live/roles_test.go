package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudfog/internal/coord"
	"cloudfog/internal/live"
)

// TestRunRoleRejects drives the subcommand entry through flag → config →
// error for every way a role can fail before it opens a socket.
func TestRunRoleRejects(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "role.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []struct {
		name string
		role live.RoleKind
		args []string
		want string
	}{
		{"missing -config", live.RoleCloud, nil, "-config is required"},
		{"role mismatch", live.RoleSupernode,
			[]string{"-config", write(`{"role":"cloud","addr":"127.0.0.1:0","tick":20000000}`)},
			`role "cloud" does not match "supernode"`},
		{"unknown key", live.RoleSupernode,
			[]string{"-config", write(`{"id":1,"addr":"127.0.0.1:0","cloud_adr":"127.0.0.1:9001","fps":30}`)},
			`"cloud_adr"`},
		{"invalid config", live.RolePlayer,
			[]string{"-config", write(`{"id":1,"game_id":1,"cloud_addr":"127.0.0.1:9001"}`), "-duration", "1s"},
			"StreamAddr"},
		{"coordinator missing -config", live.RoleCoordinator, []string{"-report", "-"}, "-config is required"},
		{"coordinator role mismatch", live.RoleCoordinator,
			[]string{"-config", write(`{"role":"cloud","addr":"127.0.0.1:0","tick":20000000}`)},
			`role "cloud" does not match "coordinator"`},
		{"coordinator unknown key", live.RoleCoordinator,
			[]string{"-config", write(`{"addr":"127.0.0.1:0","lease":1000000000}`)},
			`"lease"`},
		{"coordinator negative lease", live.RoleCoordinator,
			[]string{"-config", write(`{"addr":"127.0.0.1:0","lease_ttl":-1000000000}`)},
			"LeaseTTL"},
	}
	for _, tc := range cases {
		err := runRole(context.Background(), tc.role, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %s", tc.name, err, tc.want)
		}
	}
}

// TestRunCoordinatorRole starts the coordinator role in-process on an
// ephemeral port, waits for the address it prints, checks it listens there,
// stops it through the context the role waits on, and decodes the ledger it
// wrote to -report: no session was placed, so it is empty and balanced.
func TestRunCoordinatorRole(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "coordinator.json")
	if err := os.WriteFile(cfgPath, []byte(`{"addr":"127.0.0.1:0","ticket_key":"k"}`), 0o600); err != nil {
		t.Fatal(err)
	}
	reportPath := filepath.Join(dir, "ledger.json")

	// The role announces its address on stdout; read it through a pipe.
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- runRole(ctx, live.RoleCoordinator, []string{"-config", cfgPath, "-report", reportPath})
		w.Close() // a role that failed before announcing ends the read below
	}()
	line, _ := bufio.NewReader(r).ReadString('\n')
	var addr string
	_, scanErr := fmt.Sscanf(line, "coordinator on %s", &addr)
	var dialErr error
	if scanErr == nil {
		var conn net.Conn
		if conn, dialErr = net.Dial("tcp", addr); dialErr == nil {
			conn.Close()
		}
	}
	cancel()
	switch runErr := <-done; {
	case runErr != nil:
		t.Fatalf("coordinator role: %v", runErr)
	case scanErr != nil:
		t.Fatalf("no address in the role's first line %q: %v", line, scanErr)
	case dialErr != nil:
		t.Fatalf("coordinator role does not listen on %s: %v", addr, dialErr)
	}

	blob, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep coord.Report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("report %s: %v", blob, err)
	}
	if !rep.Balanced || rep.Ledger != (coord.Ledger{}) || rep.BoundNs <= 0 {
		t.Fatalf("report %+v, want an empty balanced ledger and a positive detector bound", rep)
	}
}
