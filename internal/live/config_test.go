package live

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cloudfog/internal/health"
	"cloudfog/internal/world"
)

// TestConfigJSONRoundTrip pins the serializability contract: one JSON
// document per role, decoding back to the identical config.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfgs := []Config{
		{
			Role: RoleCloud, Addr: "127.0.0.1:0",
			World: world.DefaultConfig(), Tick: 50 * time.Millisecond,
			FPS: 10,
		},
		{
			Role: RoleSupernode, ID: 3, Addr: "127.0.0.1:0",
			CloudAddr: "127.0.0.1:9000", CoordAddr: "127.0.0.1:9001",
			Transport: TransportUDP, FPS: 30,
			X: 2500, Y: 7500, Capacity: 64, ReportEvery: 100 * time.Millisecond,
		},
		{
			Role: RolePlayer, ID: 11, GameID: 1,
			CloudAddr: "127.0.0.1:9000", CoordAddr: "127.0.0.1:9001",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius,
			BackupAddrs: []string{"127.0.0.1:9100", "127.0.0.1:9101"},
		},
		{
			Role: RoleCoordinator, Addr: "127.0.0.1:0",
			ShortlistK: 4, Backups: 2, TicketKey: "secret",
			Detector: health.DetectorConfig{Mode: health.ModePhi, Interval: 100 * time.Millisecond},
			Overload: health.DefaultOverloadConfig(),
		},
	}
	for _, cfg := range cfgs {
		blob, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s: marshal: %v", cfg.Role, err)
		}
		var back Config
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", cfg.Role, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("%s: round trip drifted:\n  in:  %+v\n  out: %+v", cfg.Role, cfg, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("%s: decoded config fails validation: %v", cfg.Role, err)
		}
	}
}

// TestUnifiedConfigValidation exercises the single role-dispatched Validate.
func TestUnifiedConfigValidation(t *testing.T) {
	valid := map[RoleKind]Config{
		RoleCloud:     {Role: RoleCloud, Addr: "127.0.0.1:0", Tick: 50 * time.Millisecond, FPS: 10},
		RoleSupernode: {Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0", CloudAddr: "x:1", FPS: 30},
		RolePlayer: {Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1", StreamAddr: "x:2",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius},
		RoleCoordinator: {Role: RoleCoordinator, Addr: "127.0.0.1:0"},
	}
	for role, cfg := range valid {
		if err := cfg.Validate(); err != nil {
			t.Errorf("valid %s config rejected: %v", role, err)
		}
	}

	cases := []struct {
		name string
		cfg  Config
	}{
		{"unknown role", Config{Role: "gateway", Addr: "x:1"}},
		{"bad transport", Config{Role: RoleCloud, Addr: "x:1", Tick: time.Millisecond, FPS: 1, Transport: "sctp"}},
		{"cloud no addr", Config{Role: RoleCloud, Tick: time.Millisecond, FPS: 1}},
		{"supernode no cloud", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", FPS: 30}},
		{"worker no capacity", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", ReportEvery: time.Millisecond}},
		{"worker no report period", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", Capacity: 8}},
		{"player no stream or coord", Config{Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1",
			ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}},
		{"coordinator no addr", Config{Role: RoleCoordinator}},
		{"coordinator negative shortlist", Config{Role: RoleCoordinator, Addr: "x:1", ShortlistK: -1}},
		{"coordinator negative backups", Config{Role: RoleCoordinator, Addr: "x:1", Backups: -1}},
		{"worker unknown detector mode", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", Capacity: 8, ReportEvery: time.Millisecond,
			Detector: health.DetectorConfig{Mode: -1}}},
		{"worker negative detector interval", Config{Role: RoleSupernode, ID: 1, Addr: "x:1", CloudAddr: "x:2",
			FPS: 30, CoordAddr: "x:3", Capacity: 8, ReportEvery: time.Millisecond,
			Detector: health.DetectorConfig{Interval: -time.Second}}},
		{"coordinator unknown detector mode", Config{Role: RoleCoordinator, Addr: "x:1",
			Detector: health.DetectorConfig{Mode: 3}}},
		{"coordinator negative detector interval", Config{Role: RoleCoordinator, Addr: "x:1",
			Detector: health.DetectorConfig{Mode: health.ModeTimeout, Interval: -time.Second}}},
	}
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}

	// A coordinator-placed player needs no StreamAddr: the ticket names one.
	placed := Config{Role: RolePlayer, ID: 2, GameID: 1, CloudAddr: "x:1", CoordAddr: "x:9",
		ActionEvery: DefaultActionEvery, ViewRadius: DefaultViewRadius}
	if err := placed.Validate(); err != nil {
		t.Errorf("coordinator-placed player rejected: %v", err)
	}
}

// TestConfigConstructors drives a full cloud/supernode/player session through
// the functional-option constructors, including the Dial factory for the
// player's stream transport.
func TestConfigConstructors(t *testing.T) {
	cloud, err := NewCloud(Config{
		Role: RoleCloud, Addr: "127.0.0.1:0",
		Tick: 20 * time.Millisecond, FPS: 10,
	})
	if err != nil {
		t.Fatalf("NewCloud: %v", err)
	}
	defer cloud.Close()

	sn, err := NewSupernode(Config{
		Role: RoleSupernode, ID: 1, Addr: "127.0.0.1:0",
		CloudAddr: cloud.Addr(), FPS: 60, Transport: TransportTCP,
	})
	if err != nil {
		t.Fatalf("NewSupernode: %v", err)
	}
	defer sn.Close()
	if got := sn.SessionCount(); got != 0 {
		t.Fatalf("fresh supernode SessionCount = %d, want 0", got)
	}

	p, err := NewPlayer(DefaultedPlayer(Config{
		Role: RolePlayer, ID: 7, GameID: 1,
		CloudAddr: cloud.Addr(), StreamAddr: sn.Addr(),
	}))
	if err != nil {
		t.Fatalf("NewPlayer: %v", err)
	}
	rep, err := p.Run(400 * time.Millisecond)
	if err != nil {
		t.Fatalf("player run: %v", err)
	}
	if rep.Segments == 0 {
		t.Fatal("constructor-built player streamed zero segments")
	}
}

// TestLoadConfig drives the one config loader: an untagged file inherits the
// caller's role, a player file gets its cadence defaults, and a mismatched
// role, an unknown key or an invalid field is an error that names it.
func TestLoadConfig(t *testing.T) {
	write := func(body string) string {
		path := filepath.Join(t.TempDir(), "cfg.json")
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cfg, err := LoadConfig(write(`{"id":4,"game_id":1,"cloud_addr":"x:1","stream_addr":"x:2"}`), RolePlayer)
	if err != nil {
		t.Fatalf("minimal player config: %v", err)
	}
	if cfg.Role != RolePlayer || cfg.ActionEvery != DefaultActionEvery || cfg.ViewRadius != DefaultViewRadius {
		t.Fatalf("player config not tagged and defaulted: %+v", cfg)
	}
	if _, err := LoadConfig(write(`{"role":"coordinator","addr":"x:1","detector":{"Mode":2,"Interval":100000000}}`), RoleCoordinator); err != nil {
		t.Fatalf("coordinator config: %v", err)
	}

	cases := []struct {
		name, body string
		role       RoleKind
		want       string
	}{
		{"role mismatch", `{"role":"cloud","addr":"x:1","tick":1000000}`, RoleSupernode, `role "cloud" does not match "supernode"`},
		{"unknown key", `{"id":1,"addr":"x:1","cloud_adr":"x:2","fps":30}`, RoleSupernode, `"cloud_adr"`},
		{"retired heartbeat key", `{"id":1,"addr":"x:1","cloud_addr":"x:2","fps":30,"heartbeat_every":1000000}`, RoleSupernode, `"heartbeat_every"`},
		{"retired delay key", `{"id":1,"addr":"x:1","cloud_addr":"x:2","fps":30,"delay_to_cloud":1000000}`, RoleSupernode, `"delay_to_cloud"`},
		{"retired direct fps key", `{"addr":"x:1","tick":1000000,"direct_fps":10}`, RoleCloud, `"direct_fps"`},
		{"unknown nested key", `{"addr":"x:1","detector":{"Mood":2}}`, RoleCoordinator, `"Mood"`},
		{"unknown detector mode", `{"addr":"x:1","detector":{"Mode":7}}`, RoleCoordinator, "Detector: health: DetectorConfig.Mode 7"},
		{"invalid field", `{"addr":"x:1"}`, RoleCloud, "Tick"},
		{"malformed", `{"addr":`, RoleCloud, "cfg.json"},
	}
	for _, tc := range cases {
		_, err := LoadConfig(write(tc.body), tc.role)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v does not mention %s", tc.name, err, tc.want)
		}
	}
	if _, err := LoadConfig(filepath.Join(t.TempDir(), "absent.json"), RoleCloud); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: %v", err)
	}
}
