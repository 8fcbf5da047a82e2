package coord

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cloudfog/internal/live"
	"cloudfog/internal/proto"
)

// Session is a player's placement client: it asks the coordinator for a
// ticket and keeps the control link open so the tickets pushed after it —
// replacements and lease renewals — reach the running player. The
// coordinator counts the link closing as the player's departure.
type Session struct {
	cfg  live.Config
	link live.Transport
	// targets is the one path from a pushed ticket to the stream: each
	// fresher ticket, as the player's next stream target. One slot,
	// drop-oldest — only the freshest placement matters. updates is a tap on
	// the same tickets for callers timing re-placements; it keeps the last
	// eight so a reader may look away across a burst of renewals.
	targets chan live.StreamTarget
	updates chan proto.Ticket

	mu     sync.Mutex
	ticket proto.Ticket

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// OpenSession places a player (Role RolePlayer with CoordAddr set): it
// dials the coordinator — placement always rides TCP, whatever transport
// the game stream uses — sends the placement request, and verifies the
// returned ticket under cfg.TicketKey.
func OpenSession(ctx context.Context, cfg live.Config, opts ...live.Option) (*Session, error) {
	if cfg.Role != live.RolePlayer || cfg.CoordAddr == "" {
		return nil, fmt.Errorf("coord: OpenSession needs Role %q with CoordAddr set, got %q/%q",
			live.RolePlayer, cfg.Role, cfg.CoordAddr)
	}
	cfg = live.DefaultedPlayer(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	link, err := live.Dial(ctx, cfg, opts...)
	if err != nil {
		return nil, err
	}
	req := proto.Place{Player: cfg.ID, GameID: int32(cfg.GameID), X: cfg.X, Y: cfg.Y}
	if !link.Send(proto.TPlace, proto.AppendPlace(nil, req)) {
		link.Close()
		return nil, fmt.Errorf("coord: placement request send failed")
	}
	typ, payload, err := link.Recv()
	if err != nil {
		link.Close()
		return nil, fmt.Errorf("coord: placement reply: %w", err)
	}
	if typ != proto.TTicket {
		link.Close()
		return nil, fmt.Errorf("coord: placement reply type %d, want ticket", typ)
	}
	t, err := proto.UnmarshalTicket(payload)
	if err != nil {
		link.Close()
		return nil, err
	}
	if t.Addr == "" {
		link.Close()
		return nil, fmt.Errorf("coord: join rejected: no admitting worker")
	}
	if !VerifyTicket([]byte(cfg.TicketKey), t) {
		link.Close()
		return nil, fmt.Errorf("coord: ticket signature verification failed")
	}
	s := &Session{
		cfg: cfg, link: link, ticket: t,
		targets: make(chan live.StreamTarget, 1),
		updates: make(chan proto.Ticket, 8),
		stop:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.watch()
	if t.Expiry > 0 {
		s.wg.Add(1)
		go s.renewLoop()
	}
	return s, nil
}

// renewLoop keeps the session's lease alive: a renewal request (a Renew
// payload riding a TTicket frame player→coordinator) at every lease
// half-life, with capped-backoff retry when the send fails — the coordinator
// may be briefly unreachable and the lease grace period absorbs a few missed
// half-lives. The reply is an ordinary pushed ticket, consumed by watch.
func (s *Session) renewLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		t := s.Ticket()
		ttl := time.Duration(t.Expiry - t.Issued)
		if t.Expiry == 0 || ttl <= 0 {
			return
		}
		wait := ttl / 2
		if backoff > 0 {
			wait = backoff
		}
		timer := time.NewTimer(wait)
		select {
		case <-s.stop:
			timer.Stop()
			return
		case <-timer.C:
		}
		rn := proto.Renew{Player: s.cfg.ID, Epoch: s.Ticket().Epoch}
		if s.link.Send(proto.TTicket, proto.AppendRenew(nil, rn)) && s.link.Err() == nil {
			backoff = 0
			continue
		}
		// Retry sooner than the next half-life, doubling up to the
		// half-life cap.
		if backoff == 0 {
			backoff = ttl / 16
		} else {
			backoff *= 2
		}
		if backoff > ttl/2 {
			backoff = ttl / 2
		}
		if backoff <= 0 {
			backoff = time.Millisecond
		}
	}
}

// watch turns every pushed ticket that verifies and is strictly fresher than
// the one held into the player's next stream target, until the link dies.
func (s *Session) watch() {
	defer s.wg.Done()
	defer close(s.updates)
	defer close(s.targets)
	for {
		typ, payload, err := s.link.Recv()
		if err != nil {
			return
		}
		if typ != proto.TTicket {
			continue
		}
		t, err := proto.UnmarshalTicket(payload)
		if err != nil || !VerifyTicket([]byte(s.cfg.TicketKey), t) {
			continue
		}
		s.mu.Lock()
		fresher := t.Epoch > s.ticket.Epoch
		if fresher {
			s.ticket = t
		}
		s.mu.Unlock()
		if !fresher {
			continue
		}
		pushLatest(s.updates, t)
		pushLatest(s.targets, live.StreamTarget{
			Addr:      t.Addr,
			Backups:   t.Backups,
			Transport: streamName(t.Transport),
			Ticket:    proto.MarshalTicket(t),
		})
	}
}

// pushLatest enqueues v, evicting the oldest entry when the channel is full.
func pushLatest[T any](ch chan T, v T) {
	for {
		select {
		case ch <- v:
			return
		default:
			select {
			case <-ch:
			default:
			}
		}
	}
}

// Ticket returns the freshest ticket seen so far.
func (s *Session) Ticket() proto.Ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ticket
}

// Updates delivers re-placement tickets pushed by the coordinator. The
// channel closes when the control link dies.
func (s *Session) Updates() <-chan proto.Ticket { return s.updates }

// Run drives the placed player for the given wall-clock duration. Sudden
// worker death is absorbed by the player's own failover ring — the ring is
// the ticket's backups — while every fresher ticket the coordinator pushes
// reaches the running player as a stream target: one naming a *different*
// address is a make-before-break handoff (subscribe to the new worker first,
// then drop the old stream — zero visible interruption), one naming the same
// address is a lease renewal and re-keys the stream's join, so the ring stays
// usable however long the session runs.
func (s *Session) Run(duration time.Duration, opts ...live.Option) (live.PlayerReport, error) {
	// Resolve the current ticket into a runnable player config: its worker
	// address as StreamAddr, its ring as the failover backups, its transport
	// as the stream transport. s.cfg was defaulted by OpenSession.
	cur := s.Ticket()
	cfg := s.cfg
	cfg.StreamAddr = cur.Addr
	cfg.BackupAddrs = cur.Backups
	cfg.Transport = streamName(cur.Transport)
	opts = append(append([]live.Option{}, opts...),
		live.WithTicket(proto.MarshalTicket(cur)), live.WithRetarget(s.targets))
	p, err := live.NewPlayer(cfg, opts...)
	if err != nil {
		return live.PlayerReport{}, err
	}
	return p.Run(duration)
}

// Close ends the session; the coordinator records the departure.
func (s *Session) Close() {
	s.once.Do(func() { close(s.stop) })
	s.link.Close()
	s.wg.Wait()
}

// RunSession is the one-call client: place, stream for duration, depart.
// It returns the player's report and the last ticket held.
func RunSession(ctx context.Context, cfg live.Config, duration time.Duration, opts ...live.Option) (live.PlayerReport, proto.Ticket, error) {
	s, err := OpenSession(ctx, cfg, opts...)
	if err != nil {
		return live.PlayerReport{}, proto.Ticket{}, err
	}
	defer s.Close()
	rep, err := s.Run(duration, opts...)
	return rep, s.Ticket(), err
}
