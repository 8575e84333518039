package wrs

import "repro/internal/rng"

// Stream is one worker slot's private draw handle onto a shared sampler:
// Draw consumes variates from the slot's own deterministic RNG stream, so
// distinct streams may draw concurrently and a stream's draw sequence
// depends only on (seed, slot) and the sampled distribution — never on
// scheduling, worker count, or what other slots draw.
type Stream interface {
	// Len returns the number of options k.
	Len() int
	// Draw samples one option index proportionally to the weights,
	// consuming exactly one variate from the slot's stream.
	Draw() int
}

// Forkable is the concurrent sampler contract: one shared distribution,
// explicit per-slot streams. Stream(slot) returns the slot's persistent
// handle; handles for distinct slots may draw concurrently.
// Implementations fix the slot count at construction and keep each handle
// bound to the same RNG stream for the sampler's whole lifetime —
// including across reloads of the underlying distribution.
type Forkable interface {
	// Len returns the number of options k.
	Len() int
	// Stream returns slot's draw handle. The same slot always yields the
	// same handle; distinct slots' handles are safe to use concurrently.
	Stream(slot int) Stream
}

// ConcurrentAlias is the lock-free concurrent draw path: an alias table
// frozen for the current phase plus per-slot draw streams. Between phases
// the table may be rebuilt in place with Reload (the stream-sampling MWU
// learners rebuild every update cycle); the slot handles and their RNG
// streams persist across reloads, which keeps a learner's draw trajectory
// identical whether its table is frozen once or rebuilt between cycles.
// Draws for distinct slots touch disjoint RNG state and read the shared
// table immutably, so any number of slots may draw concurrently with no
// lock on the draw path. Reload must be externally ordered against draws —
// the Run driver's iteration barrier provides exactly that ordering.
type ConcurrentAlias struct {
	tab     Alias
	handles []aliasHandle
}

// aliasHandle is one slot's Stream over a ConcurrentAlias.
type aliasHandle struct {
	tab *Alias
	rng *rng.RNG
}

// Len implements Stream.
func (h *aliasHandle) Len() int { return h.tab.Len() }

// Draw implements Stream: an O(1) lock-free table lookup on the slot's
// own RNG stream.
func (h *aliasHandle) Draw() int { return h.tab.Draw(h.rng) }

// NewConcurrentAlias creates a concurrent alias sampler with the given
// number of slots. Slot i draws on the i-th stream of r.SplitN(slots), so
// its stream is a deterministic function of (r's seed, i); the sampler
// takes ownership of r. The table starts empty: call Reload before the
// first draw.
func NewConcurrentAlias(r *rng.RNG, slots int) *ConcurrentAlias {
	if slots <= 0 {
		panic("wrs: ConcurrentAlias needs at least one slot")
	}
	c := &ConcurrentAlias{handles: make([]aliasHandle, slots)}
	for i, sr := range r.SplitN(slots) {
		c.handles[i] = aliasHandle{tab: &c.tab, rng: sr}
	}
	return c
}

// Reload rebuilds the frozen table in place from w (see Alias.Reload).
// Must not run concurrently with draws.
func (c *ConcurrentAlias) Reload(w []float64) error { return c.tab.Reload(w) }

// Len implements Forkable.
func (c *ConcurrentAlias) Len() int { return c.tab.Len() }

// Stream implements Forkable. Handles are pre-allocated, so the call is
// lock-free and the returned pointer is stable across the sampler's life.
func (c *ConcurrentAlias) Stream(slot int) Stream { return &c.handles[slot] }
