package pool

import (
	"context"
	"testing"

	"repro/internal/lang"
	"repro/internal/rng"
)

// TestPrecomputeCancellation: a cancelled build returns the partial pool
// with Degraded set instead of finishing or hanging.
func TestPrecomputeCancellation(t *testing.T) {
	p := lang.MustParse(src)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pl := Precompute(ctx, p, suite(), Config{Target: 10, Workers: 4}, rng.New(1))
	if !pl.Stats().Degraded {
		t.Fatalf("cancelled build not degraded: %+v", pl.Stats())
	}
}
