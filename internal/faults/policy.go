package faults

import "repro/internal/rng"

// This file holds the graceful-degradation policies drivers respond to
// injected faults with. Policies are plain value types so a RunConfig can
// carry them by copy; the zero value of each policy is "disabled".
//
// All durations are virtual ticks on the same logical clock as the
// injector's straggler delays (see the package comment): comparable with
// each other, never with the wall clock, and therefore bit-reproducible.

// Timeout detects silent probe failures (hangs, lost results): a reward
// that has not arrived after AfterTicks is declared missing instead of
// being waited on forever. Without a Timeout, a full-synchronization
// barrier that loses one reward stalls its whole update cycle — the
// failure mode the paper charges the Standard MWU with (Sec. II).
type Timeout struct {
	// AfterTicks is the detection deadline; 0 disables the policy.
	AfterTicks int
}

// Enabled reports whether the policy is active.
func (t Timeout) Enabled() bool { return t.AfterTicks > 0 }

// Retry re-issues failed probes with capped exponential backoff and full
// jitter. Only detected failures are retryable: panics are loud, and
// hangs/losses become detectable once a Timeout is configured.
type Retry struct {
	// Max is the number of re-issues after the initial attempt; 0
	// disables the policy.
	Max int
	// BaseTicks is the first backoff window (default 1).
	BaseTicks int
	// CapTicks bounds the exponential growth; 0 means uncapped.
	CapTicks int
}

// Enabled reports whether the policy is active.
func (p Retry) Enabled() bool { return p.Max > 0 }

// Backoff returns the jittered virtual wait before retry `attempt`
// (1-based): uniform in [1, min(Cap, Base·2^(attempt−1))] — "full
// jitter", which decorrelates retry storms across evaluator slots. The
// jitter is drawn from the caller's split RNG stream, so it is
// deterministic per slot and independent of scheduling.
func (p Retry) Backoff(attempt int, r *rng.RNG) int {
	if !p.Enabled() || attempt < 1 {
		return 0
	}
	base := p.BaseTicks
	if base <= 0 {
		base = 1
	}
	window := base
	for i := 1; i < attempt; i++ {
		window <<= 1
		if p.CapTicks > 0 && window >= p.CapTicks {
			window = p.CapTicks
			break
		}
		if window <= 0 { // overflow guard on absurd attempt counts
			window = int(^uint(0) >> 2)
			break
		}
	}
	if p.CapTicks > 0 && window > p.CapTicks {
		window = p.CapTicks
	}
	return 1 + r.Intn(window)
}

// Hedge re-issues a straggling probe instead of waiting it out: when a
// straggler's delay reaches AfterTicks, a second attempt starts on
// another slot stream, and whichever finishes first wins. Hedging trades
// duplicate work for tail latency — the classic straggler mitigation.
type Hedge struct {
	// AfterTicks is the straggle delay that triggers a hedge; 0 disables
	// the policy.
	AfterTicks int
}

// Enabled reports whether the policy is active.
func (h Hedge) Enabled() bool { return h.AfterTicks > 0 }

// Policies bundles the three degradation responses a driver applies.
type Policies struct {
	Timeout Timeout
	Retry   Retry
	Hedge   Hedge
}

// DefaultPolicies is the managed configuration the resilience experiment
// and the CLIs use: detect silent failures after 200 ticks, retry up to 3
// times with backoff 10·2^i capped at 160 ticks, hedge stragglers past
// 100 ticks.
func DefaultPolicies() Policies {
	return Policies{
		Timeout: Timeout{AfterTicks: 200},
		Retry:   Retry{Max: 3, BaseTicks: 10, CapTicks: 160},
		Hedge:   Hedge{AfterTicks: 100},
	}
}
