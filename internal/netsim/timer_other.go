//go:build !linux

package netsim

import (
	"context"
	"time"
)

// wait blocks for d on the runtime timer.
func wait(ctx context.Context, d time.Duration) error { return timerWait(ctx, d) }
