package obs

import "math"

// This file holds the learner-state telemetry computations: reductions of
// a weight vector or agent population into the compact, deterministic
// scalars and histograms a state event carries. They operate on plain
// slices so every learner (explicit weights, implicit popularity counts)
// can feed them without this package importing any learner type.

// ShareHistBuckets is the number of log₂-spaced share buckets a state
// event's Hist field carries: bucket j counts options whose normalized
// share p satisfies 2^-(j+1) < p ≤ 2^-j, with the last bucket absorbing
// everything smaller. Eight buckets resolve shares down to ~0.4% — enough
// to watch a population concentrate (mass marching into bucket 0) or
// collapse prematurely, at a fixed event size independent of k.
const ShareHistBuckets = 8

// Entropy returns the Shannon entropy (nats) of the distribution obtained
// by normalizing the nonnegative mass vector: weights, or an agent
// population's per-option holder counts. Zero-mass entries carry no
// contribution; a zero or empty vector has entropy 0. Entropy ln(k) means
// uniform weights (the MWU's starting point); 0 means total concentration
// (the converged end state).
func Entropy[T ~int | ~float64](mass []T) float64 {
	total := positiveTotal(mass)
	if total <= 0 {
		return 0
	}
	h := 0.0
	for _, m := range mass {
		if m > 0 {
			p := float64(m) / float64(total)
			h -= p * math.Log(p)
		}
	}
	return h
}

// Support counts entries holding positive mass.
func Support[T ~int | ~float64](mass []T) int {
	n := 0
	for _, m := range mass {
		if m > 0 {
			n++
		}
	}
	return n
}

// ShareHist buckets the normalized shares of a mass vector into
// ShareHistBuckets log₂-spaced bins (see the constant). Zero-mass entries
// are excluded — Support carries them. A zero vector yields all-zero
// buckets.
func ShareHist[T ~int | ~float64](mass []T) []int64 {
	total := positiveTotal(mass)
	hist := make([]int64, ShareHistBuckets)
	if total <= 0 {
		return hist
	}
	for _, m := range mass {
		if m > 0 {
			hist[shareBucket(float64(m)/float64(total))]++
		}
	}
	return hist
}

// positiveTotal sums the positive entries in the slice's own type, so an
// integer total converts to float64 once, exactly.
func positiveTotal[T ~int | ~float64](mass []T) T {
	var total T
	for _, m := range mass {
		if m > 0 {
			total += m
		}
	}
	return total
}

// shareBucket maps a share p ∈ (0, 1] to its log₂ bucket.
func shareBucket(p float64) int {
	b := 0
	for p <= 0.5 && b < ShareHistBuckets-1 {
		p *= 2
		b++
	}
	return b
}

// Distinct counts the distinct values in an assignment (the slate
// composition of a sampled iteration). It is O(n·log n)-free: a small
// map, used only on sampled iterations.
func Distinct(arms []int) int {
	seen := make(map[int]struct{}, len(arms))
	for _, a := range arms {
		seen[a] = struct{}{}
	}
	return len(seen)
}
