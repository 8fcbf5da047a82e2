package live

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"cloudfog/internal/game"
	"cloudfog/internal/health"
	"cloudfog/internal/obs"
	"cloudfog/internal/proto"
	"cloudfog/internal/world"
)

// RoleKind tags which live-plane process a Config describes.
type RoleKind string

const (
	RoleCloud       RoleKind = "cloud"
	RoleSupernode   RoleKind = "supernode"
	RolePlayer      RoleKind = "player"
	RoleCoordinator RoleKind = "coordinator"
)

// ParseRole maps a CLI subcommand or config tag onto a RoleKind.
func ParseRole(s string) (RoleKind, error) {
	switch RoleKind(s) {
	case RoleCloud, RoleSupernode, RolePlayer, RoleCoordinator:
		return RoleKind(s), nil
	}
	return "", fmt.Errorf("live: unknown role %q (cloud|supernode|player|coordinator)", s)
}

// Config is the single serializable, role-tagged configuration for every
// live-plane role: cloud, supernode (standalone or coordinator-registered
// worker), player, and coordinator. One JSON document round-trips through it
// and Validate checks exactly the fields the tagged role requires, so a
// coordinator — or an operator's config file — can spawn any role from the
// same schema. Runtime-only knobs that cannot serialize (injected delay
// functions, metric registries, admission hooks) attach through the
// functional options accepted by NewCloud / NewSupernode / NewPlayer.
//
// Durations marshal as integer nanoseconds (Go's time.Duration JSON form).
type Config struct {
	Role RoleKind `json:"role"`
	// ID is the node's wire identity (supernode hello ID, worker ID, player
	// ID).
	ID int64 `json:"id,omitempty"`

	// Addr is the role's own listen address (cloud, supernode,
	// coordinator); "127.0.0.1:0" picks an ephemeral port.
	Addr string `json:"addr,omitempty"`
	// CloudAddr names the upstream cloud (supernode update subscription,
	// player action link, coordinator cloud-direct fallback tickets).
	CloudAddr string `json:"cloud_addr,omitempty"`
	// CoordAddr names the coordinator: a supernode with CoordAddr set
	// registers itself as a placeable worker, and a player with CoordAddr
	// set asks the coordinator for a session ticket instead of using
	// StreamAddr.
	CoordAddr string `json:"coord_addr,omitempty"`
	// StreamAddr pins a player's serving supernode directly (no
	// coordinator); BackupAddrs is its static failover ring, tried in order
	// (wrapping) when the serving stream dies mid-run — the live analogue of
	// the fog's backup-failover list.
	StreamAddr  string   `json:"stream_addr,omitempty"`
	BackupAddrs []string `json:"backup_addrs,omitempty"`

	// Transport selects the supernode→player stream transport, and nothing
	// else: TransportTCP (default when empty) or TransportUDP; a player's
	// must match its supernodes'. Every control link (cloud update and action
	// links, worker and player links to the coordinator) and the cloud's
	// direct streams are TCP regardless.
	Transport string `json:"transport,omitempty"`

	// Cloud fields. A zero World means world.DefaultConfig(); Tick is the
	// world update cadence.
	World world.Config  `json:"world,omitempty"`
	Tick  time.Duration `json:"tick,omitempty"`

	// FPS is the per-player segment rate of a supernode's streams. On a
	// cloud it is the rate of its direct streams — the last-resort fallback
	// for players no supernode will serve — and zero refuses them.
	FPS int `json:"fps,omitempty"`

	// Worker fields. X, Y locate a worker for the coordinator's spatial shortlist (and a
	// player's placement request).
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// Capacity is a worker's player-slot budget; ReportEvery is its
	// capacity/occupancy report period to the coordinator.
	Capacity    int           `json:"capacity,omitempty"`
	ReportEvery time.Duration `json:"report_every,omitempty"`
	// SkewTolerance is how much worker/coordinator clock disagreement a
	// lease-enforcing worker forgives when checking ticket expiry (zero
	// means DefaultSkewTolerance).
	SkewTolerance time.Duration `json:"skew_tolerance,omitempty"`
	// DrainTimeout bounds how long a SIGTERM'd worker waits for the
	// coordinator to hand its sessions off before exiting anyway (zero
	// means DefaultDrainTimeout).
	DrainTimeout time.Duration `json:"drain_timeout,omitempty"`

	// Player fields. ActionDelay is the injected one-way player→cloud
	// latency; ActionEvery is the input cadence and ViewRadius the visible
	// range in world units (see DefaultActionEvery, DefaultViewRadius).
	GameID      int           `json:"game_id,omitempty"`
	ActionDelay time.Duration `json:"action_delay,omitempty"`
	ActionEvery time.Duration `json:"action_every,omitempty"`
	ViewRadius  float64       `json:"view_radius,omitempty"`
	// UploadAllowance is subtracted from each response sample before the
	// budget check: the paper's latency budget covers the downstream path
	// (upload "does not seriously affect the response latency", §III-A),
	// while a player necessarily measures the full action→video loop.
	UploadAllowance time.Duration `json:"upload_allowance,omitempty"`

	// Coordinator fields. ShortlistK is how many nearest admitting workers
	// a placement considers (serving pick plus ring candidates); Backups is
	// the backup-ring size baked into each ticket.
	ShortlistK int `json:"shortlist_k,omitempty"`
	Backups    int `json:"backups,omitempty"`
	// TicketKey is the shared HMAC key tickets are signed under (empty
	// disables signing — fine for local smoke runs, not deployments). The
	// coordinator signs with it, a player verifies its ticket with it, and
	// under leases a worker verifies every new join with it: all three
	// must agree.
	TicketKey string `json:"ticket_key,omitempty"`
	// LeaseTTL, when positive, turns tickets into leases: every ticket the
	// coordinator issues expires LeaseTTL after issue (signed into the HMAC
	// body), workers reject expired tickets, and players renew at
	// half-life. Zero disables leases (tickets never expire).
	LeaseTTL time.Duration `json:"lease_ttl,omitempty"`

	// Detector configures failure detection on the control plane: the
	// coordinator over worker reports, a worker over coordinator beacons.
	// Zero fields use the health defaults. The cloud runs no detector and
	// rejects a non-zero value.
	Detector health.DetectorConfig `json:"detector,omitempty"`
	// Overload configures the coordinator's placement admission ladder; the
	// zero value means health.DefaultOverloadConfig().
	Overload health.OverloadConfig `json:"overload,omitempty"`
}

// Worker-side lease and drain defaults, used when the corresponding Config
// fields are zero.
const (
	// DefaultSkewTolerance forgives this much worker/coordinator clock
	// disagreement on lease-expiry checks.
	DefaultSkewTolerance = 250 * time.Millisecond
	// DefaultDrainTimeout bounds a draining worker's wait for handoff.
	DefaultDrainTimeout = 5 * time.Second
)

// Validate reports configuration errors for the tagged role. It rejects
// incomplete configurations instead of papering over them with defaults.
func (c Config) Validate() error {
	if !validTransport(c.Transport) {
		return fmt.Errorf("live: Config.Transport %q is not %q or %q", c.Transport, TransportTCP, TransportUDP)
	}
	switch c.Role {
	case RoleCloud:
		switch {
		case c.Addr == "":
			return fmt.Errorf("live: cloud Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.Tick <= 0:
			return fmt.Errorf("live: cloud Config.Tick %v is not positive", c.Tick)
		case c.FPS < 0:
			return fmt.Errorf("live: cloud Config.FPS %d is negative", c.FPS)
		case c.Detector != (health.DetectorConfig{}):
			return fmt.Errorf("live: cloud Config.Detector is set: the cloud runs no failure detector; liveness is the coordinator's")
		}
		return nil
	case RoleSupernode:
		switch {
		case c.CloudAddr == "":
			return fmt.Errorf("live: supernode Config.CloudAddr is empty")
		case c.Addr == "":
			return fmt.Errorf("live: supernode Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.FPS <= 0:
			return fmt.Errorf("live: supernode Config.FPS %d is not positive", c.FPS)
		}
		if c.CoordAddr == "" {
			return nil
		}
		switch {
		case c.Capacity <= 0:
			return fmt.Errorf("live: worker Config.Capacity %d is not positive", c.Capacity)
		case c.ReportEvery <= 0:
			return fmt.Errorf("live: worker Config.ReportEvery %v is not positive", c.ReportEvery)
		case c.SkewTolerance < 0:
			return fmt.Errorf("live: worker Config.SkewTolerance %v is negative", c.SkewTolerance)
		case c.DrainTimeout < 0:
			return fmt.Errorf("live: worker Config.DrainTimeout %v is negative", c.DrainTimeout)
		}
		return c.validateDetector()
	case RolePlayer:
		switch {
		case c.CloudAddr == "":
			return fmt.Errorf("live: player Config.CloudAddr is empty")
		case c.StreamAddr == "" && c.CoordAddr == "":
			// A coordinator-placed player gets StreamAddr from its ticket.
			return fmt.Errorf("live: player Config.StreamAddr and Config.CoordAddr are both empty")
		case c.ActionDelay < 0:
			return fmt.Errorf("live: player Config.ActionDelay %v is negative", c.ActionDelay)
		case c.ActionEvery <= 0:
			return fmt.Errorf("live: player Config.ActionEvery %v is not positive (DefaultActionEvery is %v)",
				c.ActionEvery, DefaultActionEvery)
		case c.ViewRadius <= 0:
			return fmt.Errorf("live: player Config.ViewRadius %v is not positive (DefaultViewRadius is %v)",
				c.ViewRadius, DefaultViewRadius)
		}
		if _, err := game.ByID(c.GameID); err != nil {
			return fmt.Errorf("live: player Config.GameID %d: %w", c.GameID, err)
		}
		return nil
	case RoleCoordinator:
		switch {
		case c.Addr == "":
			return fmt.Errorf("live: coordinator Config.Addr is empty (use \"127.0.0.1:0\" for an ephemeral port)")
		case c.ShortlistK < 0:
			return fmt.Errorf("live: coordinator Config.ShortlistK %d is negative", c.ShortlistK)
		case c.Backups < 0:
			return fmt.Errorf("live: coordinator Config.Backups %d is negative", c.Backups)
		case c.LeaseTTL < 0:
			return fmt.Errorf("live: coordinator Config.LeaseTTL %v is negative", c.LeaseTTL)
		case c.Transport == TransportUDP:
			return fmt.Errorf("live: coordinator Config.Transport %q: control links are TCP", c.Transport)
		}
		if c.Overload != (health.OverloadConfig{}) {
			if err := c.Overload.Validate(); err != nil {
				return err
			}
		}
		return c.validateDetector()
	default:
		return fmt.Errorf("live: Config.Role %q is not a known role (cloud|supernode|player|coordinator)", c.Role)
	}
}

// validateDetector checks the detector of a role that runs one (worker,
// coordinator); a JSON config carries its Mode as a bare integer.
func (c Config) validateDetector() error {
	if err := c.Detector.Validate(); err != nil {
		return fmt.Errorf("live: %s Config.Detector: %w", c.Role, err)
	}
	return nil
}

// WorldConfig returns the cloud world configuration, substituting
// world.DefaultConfig() for the zero value so serialized configs need not
// spell out the default world.
func (c Config) WorldConfig() world.Config {
	if c.World == (world.Config{}) {
		return world.DefaultConfig()
	}
	return c.World
}

// LoadConfig reads, defaults and validates the role-tagged JSON config at
// path ("-" reads stdin). An untagged config inherits role; a mismatched tag
// is an error, and so is a key Config does not have — a typo'd key would
// otherwise decode to a zero value and fail validation under the wrong name.
func LoadConfig(path string, role RoleKind) (Config, error) {
	var cfg Config
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return cfg, err
		}
		defer f.Close()
		in = f
	}
	dec := json.NewDecoder(in)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return cfg, fmt.Errorf("live: config %s: %w", path, err)
	}
	if cfg.Role == "" {
		cfg.Role = role
	}
	if cfg.Role != role {
		return cfg, fmt.Errorf("live: config %s: role %q does not match %q", path, cfg.Role, role)
	}
	if role == RolePlayer {
		// Fill the cadence and view radius before the strict validation pass
		// so minimal player configs work from a file.
		cfg = DefaultedPlayer(cfg)
	}
	return cfg, cfg.Validate()
}

// Options carries the runtime-only attachments a serializable Config cannot:
// injected per-peer delays, metric registries, admission hooks. Build one
// with the With* functional options.
type Options struct {
	// Obs, when non-nil, registers the role's link (and coordinator)
	// metrics.
	Obs *obs.Registry
	// DelayFor, when non-nil, returns the injected one-way delay toward the
	// identified peer (the cloud keys it by supernode hello ID and, on a
	// direct stream, by player ID; a supernode by player ID).
	DelayFor func(peerID int64) time.Duration
	// JoinGate, when non-nil, vets every join at a supernode — the initial
	// subscription and every datagram keepalive re-join — and returns an Ack
	// code: proto.AckOK admits, anything else refuses the join and the code
	// is reported to the player. known is true when the player already has a
	// live stream here (a lease-enforcing worker in partition safe mode keeps
	// serving known players but refuses new placements).
	JoinGate func(join proto.JoinStream, known bool) uint32
	// Ticket is a player's encoded session ticket; when non-empty it rides
	// inside every join so lease-enforcing workers can verify the placement
	// and its expiry.
	Ticket []byte
	// Retarget, when non-nil, delivers fresher stream targets to a running
	// player. One naming a new address (a coordinator draining the serving
	// worker pushes one) is a make-before-break handoff: subscribe to the new
	// target first, then drop the old stream — zero interruptions, counted
	// as a Handoff rather than a Failover. One naming the same address is a
	// lease renewal: the player swaps the ticket in its join and streams on.
	Retarget <-chan StreamTarget
}

// Option mutates Options; see With*.
type Option func(*Options)

// WithObs attaches a metrics registry.
func WithObs(r *obs.Registry) Option { return func(o *Options) { o.Obs = r } }

// WithDelayFor injects per-peer one-way delays at the sender.
func WithDelayFor(f func(peerID int64) time.Duration) Option {
	return func(o *Options) { o.DelayFor = f }
}

// WithJoinGate installs a join admission hook at a supernode.
func WithJoinGate(f func(join proto.JoinStream, known bool) uint32) Option {
	return func(o *Options) { o.JoinGate = f }
}

// WithTicket embeds an encoded session ticket in a player's joins.
func WithTicket(t []byte) Option { return func(o *Options) { o.Ticket = t } }

// WithRetarget wires a replacement-target channel into a player session.
func WithRetarget(ch <-chan StreamTarget) Option {
	return func(o *Options) { o.Retarget = ch }
}

// BuildOptions folds a list of options into one Options value.
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// link builds the options of a link toward peer: the injected delay and,
// when a registry is attached, the link's metrics under the given label.
func (o Options) link(delay time.Duration, label string) LinkOptions {
	lo := LinkOptions{Delay: delay}
	if o.Obs != nil {
		lo.Stats = obs.LinkStatsIn(o.Obs, label)
	}
	return lo
}

// delayFor is the injected one-way delay toward peer (zero without DelayFor).
func (o Options) delayFor(peer int64) time.Duration {
	if o.DelayFor == nil {
		return 0
	}
	return o.DelayFor(peer)
}

// DefaultedPlayer fills a player config's unset cadence and radius with the
// suggested defaults, so minimal configs pass Validate.
func DefaultedPlayer(cfg Config) Config {
	if cfg.ActionEvery == 0 {
		cfg.ActionEvery = DefaultActionEvery
	}
	if cfg.ViewRadius == 0 {
		cfg.ViewRadius = DefaultViewRadius
	}
	return cfg
}
