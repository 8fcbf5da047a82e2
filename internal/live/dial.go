package live

import (
	"context"
	"fmt"
)

// Dial opens the control link to the coordinator at cfg.CoordAddr: a worker
// registering, a player requesting placement. The link is always TCP,
// whatever cfg.Transport says about the game stream, and the dial retries
// with capped backoff until ctx expires (dialDeadline when ctx sets none).
// Runtime options attach injected delay (DelayFor keyed by cfg.ID) and link
// stats via WithObs/WithDelayFor.
func Dial(ctx context.Context, cfg Config, opts ...Option) (Transport, error) {
	if cfg.CoordAddr == "" {
		return nil, fmt.Errorf("live: Dial: no coordinator address in config")
	}
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, dialDeadline)
		defer cancel()
	}
	conn, err := dialBackoff(ctx, cfg.CoordAddr, cfg.ID)
	if err != nil {
		return nil, err
	}
	o := BuildOptions(opts...)
	return NewLinkOpts(conn, o.link(o.delayFor(cfg.ID), fmt.Sprintf("%s%d_dial", RoleCoordinator, cfg.ID))), nil
}
