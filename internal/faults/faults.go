// Package faults is the deterministic fault-injection layer behind the
// repository's resilience story. The paper motivates the Distributed MWU
// precisely because it tolerates agent failure where Standard's
// full-synchronization barrier cannot (Sec. II, Table I); this package
// makes that claim exercisable: probe stragglers, hangs, result loss,
// worker panics, agent crashes/restarts, and message drop/delay/
// duplication for the message-passing protocol, all injectable at
// configurable rates.
//
// Every fault decision is a pure function of (seed, fault domain, site
// coordinates) — a splitmix64-style hash, never a draw from a shared RNG
// stream — so a fixed seed yields a bit-identical fault schedule at any
// worker count and under any goroutine interleaving. That is the same
// reproducibility discipline the probe evaluators already follow
// (internal/rng pre-split streams), extended to the failures themselves:
// a chaos run is exactly as replayable as a clean one.
//
// Time is virtual. Straggler delays, timeouts, and retry backoffs are
// integer "ticks" on a logical clock, compared against each other but
// never against the wall clock, which keeps chaos tests fast and
// bit-reproducible. The policy types that consume them (Timeout, Retry,
// Hedge — see policy.go) are the graceful-degradation half of the
// subsystem.
package faults

import (
	"fmt"
	"math"
)

// Kind classifies one injected probe-evaluation fault.
type Kind uint8

const (
	// None: the probe proceeds normally.
	None Kind = iota
	// Straggle: the probe completes, but late — after StraggleTicks of
	// virtual delay. Without a straggler cutoff it is merely slow; past
	// the cutoff its reward is dropped as missing.
	Straggle
	// Hang: the probe never returns. Silent — only a Timeout policy can
	// detect it; a full-synchronization barrier without one stalls.
	Hang
	// Loss: the probe completes but its result message is lost in
	// transit. Silent, like Hang, from the waiting side's perspective.
	Loss
	// Panic: the evaluating worker panics mid-probe. Loud — the worker
	// pool recovers it and knows the slot failed, so it is retryable
	// without a timeout.
	Panic
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Straggle:
		return "straggle"
	case Hang:
		return "hang"
	case Loss:
		return "loss"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MsgKind classifies one injected point-to-point message fault in the
// message-passing Distributed protocol.
type MsgKind uint8

const (
	// MsgNone: the message is delivered normally.
	MsgNone MsgKind = iota
	// MsgDrop: the observation query is lost; the observer degrades to
	// re-observing its own current choice.
	MsgDrop
	// MsgDelay: the reply is delayed but still arrives within the phase
	// deadline (counted, not semantically visible).
	MsgDelay
	// MsgDup: the query is duplicated; the peer serves it twice
	// (congestion doubles for that edge), the observer uses one reply.
	MsgDup
)

func (k MsgKind) String() string {
	switch k {
	case MsgNone:
		return "none"
	case MsgDrop:
		return "drop"
	case MsgDelay:
		return "delay"
	case MsgDup:
		return "dup"
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Config sets per-event fault probabilities. All rates are independent
// per site; a zero Config injects nothing.
type Config struct {
	// Seed drives the whole fault schedule. Two injectors with the same
	// Config produce identical schedules.
	Seed uint64

	// Straggle, Hang, Loss, Panic are per-probe-attempt fault
	// probabilities. They partition one uniform draw, so their sum must
	// be ≤ 1.
	Straggle float64
	Hang     float64
	Loss     float64
	Panic    float64

	// Crash is the per-agent-per-iteration crash probability in the
	// message-passing protocol.
	Crash float64
	// RestartAfter is how many iterations a crashed agent stays down
	// before the coordinator restarts it with fresh O(1) state; 0 means
	// crashed agents never come back.
	RestartAfter int

	// Drop, Delay, Dup are per-observation-query message fault
	// probabilities (message-passing protocol). They partition one
	// uniform draw, so their sum must be ≤ 1.
	Drop  float64
	Delay float64
	Dup   float64
}

// Uniform maps a single scalar fault rate onto a representative mix of
// probe and message faults — the dial the resilience experiment (E11) and
// the CLIs turn. At rate f: stragglers f, hangs f/2, losses f/4, panics
// f/8, message drops f/2, delays f/4, dups f/8, agent crashes f/50 with
// restart after 25 iterations.
func Uniform(seed uint64, rate float64) Config {
	if rate < 0 {
		rate = 0
	}
	return Config{
		Seed:         seed,
		Straggle:     rate,
		Hang:         rate / 2,
		Loss:         rate / 4,
		Panic:        rate / 8,
		Crash:        rate / 50,
		RestartAfter: 25,
		Drop:         rate / 2,
		Delay:        rate / 4,
		Dup:          rate / 8,
	}
}

// meanStraggleTicks is the mean of the exponential virtual delay of
// stragglers.
const meanStraggleTicks = 100

// Injector makes fault decisions. A nil *Injector is valid and injects
// nothing, so drivers can thread it unconditionally. All methods are safe
// for concurrent use: decisions are stateless hashes.
type Injector struct {
	cfg Config
}

// New builds an injector. Passing the zero Config yields an enabled
// injector that never fires; callers that want no injection at all should
// keep a nil *Injector instead.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg}
}

// Enabled reports whether the injector is present. Nil-safe.
func (in *Injector) Enabled() bool { return in != nil }

// Config returns the injector's configuration. Nil-safe (zero Config).
func (in *Injector) Config() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Hash domains keep decision families independent: the same site
// coordinates in different domains yield unrelated draws.
const (
	domProbe uint64 = 1 + iota
	domHedge
	domStraggle
	domCrash
	domMessage
)

// mix folds v into h with the splitmix64 finalizer, giving a
// well-distributed stateless hash chain.
func mix(h, v uint64) uint64 {
	z := h + 0x9e3779b97f4a7c15 + v
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// u returns the uniform [0,1) draw for one decision site.
func (in *Injector) u(dom uint64, a, b, c int) float64 {
	h := mix(in.cfg.Seed, dom)
	h = mix(h, uint64(a))
	h = mix(h, uint64(b))
	h = mix(h, uint64(c))
	return float64(h>>11) / (1 << 53)
}

// ProbeFault decides the fate of probe attempt `attempt` for evaluator
// slot `slot` at update cycle `iter`. Nil-safe.
func (in *Injector) ProbeFault(iter, slot, attempt int) Kind {
	if in == nil {
		return None
	}
	return classifyProbe(in.u(domProbe, iter, slot, attempt), in.cfg)
}

// HedgeFault decides the fate of the hedge re-issue of a straggling probe
// — an independent decision site, so a hedge can fail too. Nil-safe.
func (in *Injector) HedgeFault(iter, slot, attempt int) Kind {
	if in == nil {
		return None
	}
	return classifyProbe(in.u(domHedge, iter, slot, attempt), in.cfg)
}

func classifyProbe(u float64, c Config) Kind {
	if u < c.Panic {
		return Panic
	}
	u -= c.Panic
	if u < c.Hang {
		return Hang
	}
	u -= c.Hang
	if u < c.Loss {
		return Loss
	}
	u -= c.Loss
	if u < c.Straggle {
		return Straggle
	}
	return None
}

// StraggleTicks returns the virtual delay of a straggling probe:
// 1 + an exponential variate with mean meanStraggleTicks, capped at
// 50× the mean so pathological tails stay finite. Nil-safe (0).
func (in *Injector) StraggleTicks(iter, slot, attempt int) int {
	if in == nil {
		return 0
	}
	u := in.u(domStraggle, iter, slot, attempt)
	d := -meanStraggleTicks * math.Log(1-u)
	if max := 50.0 * meanStraggleTicks; d > max {
		d = max
	}
	return 1 + int(d)
}

// AgentCrash decides whether agent `agent` crashes at the start of
// iteration `iter` of the message-passing protocol. Nil-safe.
func (in *Injector) AgentCrash(agent, iter int) bool {
	if in == nil || in.cfg.Crash <= 0 {
		return false
	}
	return in.u(domCrash, agent, iter, 0) < in.cfg.Crash
}

// MessageFault decides the fate of the observation query agent `agent`
// sends during iteration `iter`. Nil-safe.
func (in *Injector) MessageFault(iter, agent int) MsgKind {
	if in == nil {
		return MsgNone
	}
	u := in.u(domMessage, iter, agent, 0)
	c := in.cfg
	if u < c.Drop {
		return MsgDrop
	}
	u -= c.Drop
	if u < c.Delay {
		return MsgDelay
	}
	u -= c.Delay
	if u < c.Dup {
		return MsgDup
	}
	return MsgNone
}

// Stats is the resilience ledger every driver reports: what was injected,
// what the policies absorbed, and what degraded. Fields are plain int64s
// so the struct is freely copyable into result types; concurrent writers
// use sync/atomic on individual fields and read only after a barrier.
type Stats struct {
	// Injected counts every injected fault event of any kind.
	Injected int64
	// Stragglers, Hangs, Losses, Panics break probe faults down by kind.
	Stragglers int64
	Hangs      int64
	Losses     int64
	Panics     int64
	// LateDropped counts stragglers whose delay exceeded the straggler
	// cutoff, turning their rewards into misses.
	LateDropped int64
	// Timeouts counts silent failures (hangs, losses) converted into
	// detected misses by the Timeout policy.
	Timeouts int64
	// Retries counts re-issued probe attempts under the Retry policy.
	Retries int64
	// Hedges and HedgesWon count straggler re-issues under the Hedge
	// policy and how many of them beat the straggler.
	Hedges    int64
	HedgesWon int64
	// Missing counts rewards that ended a cycle absent after all
	// policies had their say.
	Missing int64
	// StalledCycles counts update cycles a full-synchronization barrier
	// lost to a silent failure with no timeout — the Standard-stalls
	// half of the paper's Table I argument.
	StalledCycles int64
	// Crashes and Restarts count message-passing agent lifecycle events.
	Crashes  int64
	Restarts int64
	// MsgDropped, MsgDelayed, MsgDuplicated count message faults in the
	// message-passing protocol.
	MsgDropped    int64
	MsgDelayed    int64
	MsgDuplicated int64
}

// Any reports whether any fault activity was recorded.
func (s Stats) Any() bool { return s != Stats{} }

// Merge folds o into s.
func (s *Stats) Merge(o Stats) {
	s.Injected += o.Injected
	s.Stragglers += o.Stragglers
	s.Hangs += o.Hangs
	s.Losses += o.Losses
	s.Panics += o.Panics
	s.LateDropped += o.LateDropped
	s.Timeouts += o.Timeouts
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.HedgesWon += o.HedgesWon
	s.Missing += o.Missing
	s.StalledCycles += o.StalledCycles
	s.Crashes += o.Crashes
	s.Restarts += o.Restarts
	s.MsgDropped += o.MsgDropped
	s.MsgDelayed += o.MsgDelayed
	s.MsgDuplicated += o.MsgDuplicated
}

func (s Stats) String() string {
	return fmt.Sprintf(
		"faults=%d (straggle=%d hang=%d loss=%d panic=%d) late=%d timeouts=%d retries=%d hedges=%d/%d missing=%d stalled=%d crashes=%d restarts=%d msg(drop=%d delay=%d dup=%d)",
		s.Injected, s.Stragglers, s.Hangs, s.Losses, s.Panics,
		s.LateDropped, s.Timeouts, s.Retries, s.HedgesWon, s.Hedges,
		s.Missing, s.StalledCycles, s.Crashes, s.Restarts,
		s.MsgDropped, s.MsgDelayed, s.MsgDuplicated)
}
