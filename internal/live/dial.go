package live

import (
	"context"
	"fmt"
	"net"
)

// Dial opens the Transport a role uses to reach its upstream, putting the
// UDP-vs-TCP decision (and the backoff/link plumbing both make) in exactly
// one place:
//
//   - RoleSupernode dials the cloud update link at cfg.CloudAddr — always
//     TCP, world updates must not be dropped.
//   - RolePlayer dials the serving stream at cfg.StreamAddr over
//     cfg.Transport.
//   - RoleCoordinator dials the coordinator at cfg.CoordAddr — always TCP,
//     whatever cfg.Transport says about the stream (workers registering,
//     players requesting placement).
//
// RoleCloud is listen-only and is rejected. Runtime options attach injected
// delay (DelayFor keyed by cfg.ID) and link stats via WithObs/WithDelayFor.
func Dial(ctx context.Context, role RoleKind, cfg Config, opts ...Option) (Transport, error) {
	o := BuildOptions(opts...)
	var addr string
	switch role {
	case RoleSupernode:
		addr = cfg.CloudAddr
	case RolePlayer:
		addr = cfg.StreamAddr
	case RoleCoordinator:
		addr = cfg.CoordAddr
	case RoleCloud:
		return nil, fmt.Errorf("live: Dial(RoleCloud): the cloud listens, it does not dial")
	default:
		return nil, fmt.Errorf("live: Dial on unknown role %q", role)
	}
	if addr == "" {
		return nil, fmt.Errorf("live: Dial(%s): no upstream address in config", role)
	}

	lo := o.link(o.delayFor(cfg.ID), fmt.Sprintf("%s%d_dial", role, cfg.ID))
	// Only the player's stream may be a datagram link.
	udp := role == RolePlayer && cfg.Transport == TransportUDP
	return dialTransport(ctx, addr, cfg.ID, udp, lo)
}

// dialTransport is the shared tail of every dial path: UDP connects
// immediately (connectionless), TCP retries with capped backoff until ctx
// expires.
func dialTransport(ctx context.Context, addr string, id int64, udp bool, lo LinkOptions) (Transport, error) {
	if udp {
		conn, err := net.Dial("udp", addr)
		if err != nil {
			return nil, err
		}
		return NewDatagramLink(conn, lo), nil
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dialDeadline)
		defer cancel()
	}
	conn, err := dialBackoff(ctx, addr, id)
	if err != nil {
		return nil, err
	}
	return NewLinkOpts(conn, lo), nil
}
