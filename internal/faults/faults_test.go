package faults

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// TestDecisionsAreDeterministic asserts the core contract: fault
// decisions are pure functions of (seed, domain, coordinates), so two
// injectors with the same config agree on every decision — the property
// that makes schedules worker-count invariant.
func TestDecisionsAreDeterministic(t *testing.T) {
	a := New(Uniform(99, 0.3))
	b := New(Uniform(99, 0.3))
	for iter := 0; iter < 50; iter++ {
		for slot := 0; slot < 20; slot++ {
			if a.ProbeFault(iter, slot, 0) != b.ProbeFault(iter, slot, 0) {
				t.Fatalf("ProbeFault(%d,%d) disagrees between equal injectors", iter, slot)
			}
			if a.StraggleTicks(iter, slot, 0) != b.StraggleTicks(iter, slot, 0) {
				t.Fatalf("StraggleTicks(%d,%d) disagrees", iter, slot)
			}
			if a.AgentCrash(slot, iter) != b.AgentCrash(slot, iter) {
				t.Fatalf("AgentCrash(%d,%d) disagrees", slot, iter)
			}
			if a.MessageFault(iter, slot) != b.MessageFault(iter, slot) {
				t.Fatalf("MessageFault(%d,%d) disagrees", iter, slot)
			}
		}
	}
}

// TestSeedChangesSchedule: different seeds must produce different
// schedules (with overwhelming probability at these sample sizes).
func TestSeedChangesSchedule(t *testing.T) {
	a := New(Uniform(1, 0.3))
	b := New(Uniform(2, 0.3))
	same := true
	for iter := 0; iter < 100 && same; iter++ {
		for slot := 0; slot < 20; slot++ {
			if a.ProbeFault(iter, slot, 0) != b.ProbeFault(iter, slot, 0) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 2000-decision schedules")
	}
}

// TestNilInjectorInjectsNothing: a nil *Injector is a valid no-op, so
// drivers can thread it unconditionally.
func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports Enabled")
	}
	if k := in.ProbeFault(3, 4, 0); k != None {
		t.Fatalf("nil injector injected %v", k)
	}
	if in.HedgeFault(3, 4, 0) != None || in.AgentCrash(1, 2) || in.MessageFault(1, 2) != MsgNone {
		t.Fatal("nil injector injected a fault")
	}
	if in.Config() != (Config{}) {
		t.Fatal("nil injector has non-zero config")
	}
}

// TestProbeFaultRates: the classifier partitions one uniform draw, so
// empirical rates must track the configured ones.
func TestProbeFaultRates(t *testing.T) {
	cfg := Config{Seed: 7, Straggle: 0.2, Hang: 0.1, Loss: 0.05, Panic: 0.025}
	in := New(cfg)
	counts := map[Kind]int{}
	const n = 200000
	for i := 0; i < n; i++ {
		counts[in.ProbeFault(i/1000, i%1000, 0)]++
	}
	check := func(k Kind, want float64) {
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("%v rate %.4f, want %.3f", k, got, want)
		}
	}
	check(Straggle, 0.2)
	check(Hang, 0.1)
	check(Loss, 0.05)
	check(Panic, 0.025)
	check(None, 1-0.375)
}

// TestStraggleTicksBounded: delays are ≥1 and capped at 50× the mean.
func TestStraggleTicksBounded(t *testing.T) {
	in := New(Config{Seed: 3, Straggle: 1})
	for i := 0; i < 10000; i++ {
		d := in.StraggleTicks(i, 0, 0)
		if d < 1 || d > 5000 {
			t.Fatalf("StraggleTicks = %d outside [1, 5000]", d)
		}
	}
}

// TestRetryBackoffGrowsAndCaps: exponential window growth with full
// jitter, capped, always ≥1 tick.
func TestRetryBackoffGrowsAndCaps(t *testing.T) {
	re := Retry{Max: 5, BaseTicks: 10, CapTicks: 40}
	r := rng.New(11)
	maxSeen := make(map[int]int)
	for trial := 0; trial < 2000; trial++ {
		for attempt := 1; attempt <= 5; attempt++ {
			d := re.Backoff(attempt, r)
			if d < 1 {
				t.Fatalf("backoff %d < 1 at attempt %d", d, attempt)
			}
			if d > 40 {
				t.Fatalf("backoff %d exceeds cap at attempt %d", d, attempt)
			}
			if d > maxSeen[attempt] {
				maxSeen[attempt] = d
			}
		}
	}
	if maxSeen[1] > 10 {
		t.Fatalf("attempt 1 window %d exceeds base 10", maxSeen[1])
	}
	if maxSeen[3] <= maxSeen[1] {
		t.Fatalf("window did not grow: attempt1 max %d, attempt3 max %d", maxSeen[1], maxSeen[3])
	}
}

// TestStatsMergeAndAny: the ledger is a plain comparable value type.
func TestStatsMergeAndAny(t *testing.T) {
	var s Stats
	if s.Any() {
		t.Fatal("zero Stats reports Any")
	}
	s.Merge(Stats{Injected: 2, Stragglers: 1, Retries: 3})
	s.Merge(Stats{Injected: 1, Crashes: 4})
	want := Stats{Injected: 3, Stragglers: 1, Retries: 3, Crashes: 4}
	if s != want {
		t.Fatalf("merged %+v, want %+v", s, want)
	}
	if !s.Any() {
		t.Fatal("non-zero Stats reports !Any")
	}
}

// TestUniformScalesRates documents the Uniform preset's shape.
func TestUniformScalesRates(t *testing.T) {
	c := Uniform(5, 0.2)
	if c.Straggle != 0.2 || c.Hang != 0.1 || c.Loss != 0.05 || c.Panic != 0.025 {
		t.Fatalf("probe rates %+v", c)
	}
	if c.Crash != 0.2/50 || c.RestartAfter != 25 {
		t.Fatalf("crash config %+v", c)
	}
	if c.Drop != 0.1 || c.Delay != 0.05 || c.Dup != 0.025 {
		t.Fatalf("message rates %+v", c)
	}
	if n := Uniform(5, -1); n != (Config{Seed: 5, RestartAfter: 25}) {
		t.Fatalf("negative rate not clamped: %+v", n)
	}
}

// TestPoliciesAny: zero policies are inert and the default ones are not.
func TestPoliciesAny(t *testing.T) {
	if d := DefaultPolicies(); !d.Timeout.Enabled() || !d.Retry.Enabled() || !d.Hedge.Enabled() {
		t.Fatal("DefaultPolicies has a disabled component")
	}
	if (Retry{}).Enabled() || (Timeout{}).Enabled() || (Hedge{}).Enabled() {
		t.Fatal("zero policy components report Enabled")
	}
}
