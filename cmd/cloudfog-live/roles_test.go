package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		{"coordinator redirect", live.RoleCoordinator, []string{"-config", "unused.json"}, "cloudfog-coordinator"},
	}
	for _, tc := range cases {
		err := runRole(tc.role, tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %s", tc.name, err, tc.want)
		}
	}
}
