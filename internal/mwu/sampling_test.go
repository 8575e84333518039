package mwu

import (
	"context"

	"math"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/simplex"
)

// --- Sample ownership regression tests -------------------------------------
//
// Learners used to return an internal buffer from Sample, so a caller that
// retained one cycle's assignment saw it silently overwritten by the next.
// The Learner contract now hands ownership to the caller; these tests pin
// that for every learner.

func assertSampleOwned(t *testing.T, sample func() []int, update func(arms []int)) {
	t.Helper()
	first := sample()
	saved := append([]int(nil), first...)
	update(first)
	second := sample()
	for i := range first {
		if first[i] != saved[i] {
			t.Fatalf("earlier Sample slice mutated at %d: %d -> %d", i, saved[i], first[i])
		}
	}
	if len(second) > 0 && len(first) > 0 && &second[0] == &first[0] {
		t.Fatal("Sample returned the same backing array twice")
	}
}

func TestStandardSampleOwned(t *testing.T) {
	s := NewStandard(StandardConfig{K: 8, Agents: 6}, rng.New(41))
	assertSampleOwned(t, s.Sample, func(arms []int) {
		s.Update(arms, make([]float64, len(arms)))
	})
}

func TestSlateSampleOwned(t *testing.T) {
	s := NewSlate(SlateConfig{K: 16, N: 4}, rng.New(42))
	assertSampleOwned(t, s.Sample, func(arms []int) {
		s.Update(arms, make([]float64, len(arms)))
	})
}

func TestDistributedSampleOwned(t *testing.T) {
	d := MustDistributed(DistributedConfig{K: 4, PopSize: 40}, rng.New(44))
	assertSampleOwned(t, d.Sample, func(arms []int) {
		d.Update(arms, make([]float64, len(arms)))
	})
}

// --- Fenwick-path sampling --------------------------------------------------

// TestStandardFenwickPathRespectsWeights is the many-options counterpart
// of TestStandardSampleRespectsWeights: the learner draws by prefix
// descent on the tree, so a direct weight poke must go through resync to
// be visible.
func TestStandardFenwickPathRespectsWeights(t *testing.T) {
	s := NewStandard(StandardConfig{K: 256, Agents: 4}, rng.New(45))
	heavy := 137
	for i := range s.weights {
		s.weights[i] = 0.001
	}
	s.weights[heavy] = 1000
	s.resync()
	hits := 0
	const rounds = 250
	for r := 0; r < rounds; r++ {
		for _, a := range s.Sample() {
			if a == heavy {
				hits++
			}
		}
	}
	if hits < rounds*4*99/100 {
		t.Fatalf("heavy option sampled %d/%d times", hits, rounds*4)
	}
}

// TestStandardUpdateKeepsFenwickInSync verifies the incremental tree
// maintenance: after many update cycles (crossing resync boundaries and a
// rescale), the tree must agree with the weight vector entry for entry.
func TestStandardUpdateKeepsFenwickInSync(t *testing.T) {
	s := NewStandard(StandardConfig{K: 64, Agents: 8, Eta: 0.4}, rng.New(46))
	r := rng.New(47)
	for cycle := 0; cycle < 3000; cycle++ {
		arms := s.Sample()
		rewards := make([]float64, len(arms))
		for j := range rewards {
			rewards[j] = float64(r.Intn(2))
		}
		s.Update(arms, rewards)
	}
	for i, w := range s.weights {
		if f := s.fen.Weight(i); math.Abs(f-w) > 1e-9*math.Max(1, w) {
			t.Fatalf("tree weight[%d] = %v, vector %v", i, f, w)
		}
	}
}

// --- Long-run drift (satellite: hardened rescaleIfNeeded) -------------------

// TestStandardSumDriftBounded runs hundreds of thousands of incremental
// updates and checks the running total never strays from the exact sum by
// more than a hair: the periodic resync (every resyncEvery cycles) must keep
// the accumulated += rounding error from compounding.
func TestStandardSumDriftBounded(t *testing.T) {
	s := NewStandard(StandardConfig{K: 32, Agents: 8, Eta: 0.05}, rng.New(48))
	r := rng.New(49)
	arms := make([]int, 8)
	rewards := make([]float64, 8)
	worst := 0.0
	for cycle := 0; cycle < 200000; cycle++ {
		for j := range arms {
			arms[j] = r.Intn(32)
			rewards[j] = float64(r.Intn(2))
		}
		s.Update(arms, rewards)
		if cycle%1000 == 999 {
			exact := 0.0
			for _, w := range s.weights {
				exact += w
			}
			if rel := math.Abs(s.sum-exact) / exact; rel > worst {
				worst = rel
			}
		}
	}
	if worst > 1e-10 {
		t.Fatalf("running sum drifted %.2e relative from exact", worst)
	}
}

// --- Before/after determinism ----------------------------------------------
//
// The sub-linear samplers must not change what a fixed seed computes. The
// reference learners below reproduce the pre-wrs sampling code verbatim
// (per-agent linear-scan Categorical for Standard, sort-based
// CapDistribution for Slate); running them against the same seeds and
// oracles as the production learners pins the full Run trajectory.

type naiveStandard struct{ *Standard }

func (s naiveStandard) Sample() []int {
	arms := make([]int, s.cfg.Agents)
	for j := range arms {
		arms[j] = s.Standard.rng.Categorical(s.weights)
	}
	return arms
}

type naiveSlate struct{ *Slate }

func (s naiveSlate) Sample() []int {
	n, k := s.cfg.N, s.cfg.K
	q := simplex.CapDistribution(s.weights, n)
	if s.marginals == nil {
		s.marginals = make([]float64, k)
	}
	uniform := float64(n) / float64(k)
	for i := range s.marginals {
		s.marginals[i] = (1-s.cfg.Gamma)*float64(n)*q[i] + s.cfg.Gamma*uniform
	}
	slate := simplex.SystematicSample(s.marginals, n, s.Slate.rng)
	arms := make([]int, len(slate))
	copy(arms, slate)
	return arms
}

// runPair drives a production learner and its naive reference against
// identical seeds/oracles and requires identical trajectories.
func runPair(t *testing.T, name string, mk func() (Learner, Learner)) {
	t.Helper()
	l, ref := mk()
	oracle := func(seed uint64, k int) bandit.Oracle {
		return bandit.NewProblem(dist.Random(name, k, rng.New(seed)))
	}
	resL := Run(context.Background(), l, oracle(300, l.K()), rng.New(301), RunConfig{MaxIter: 400, Workers: 1})
	resR := Run(context.Background(), ref, oracle(300, ref.K()), rng.New(301), RunConfig{MaxIter: 400, Workers: 1})
	if resL != resR {
		t.Fatalf("%s: trajectories diverged: %+v vs %+v", name, resL, resR)
	}
}

func TestStandardRunMatchesNaiveBatchedPath(t *testing.T) {
	runPair(t, "std-batched", func() (Learner, Learner) {
		cfg := StandardConfig{K: 64, Agents: 16}
		return NewStandard(cfg, rng.New(310)), naiveStandard{NewStandard(cfg, rng.New(310))}
	})
}

func TestStandardRunMatchesNaiveFenwickPath(t *testing.T) {
	runPair(t, "std-fenwick", func() (Learner, Learner) {
		cfg := StandardConfig{K: 1024, Agents: 16}
		return NewStandard(cfg, rng.New(311)), naiveStandard{NewStandard(cfg, rng.New(311))}
	})
}

func TestSlateRunMatchesNaive(t *testing.T) {
	runPair(t, "slate", func() (Learner, Learner) {
		cfg := SlateConfig{K: 200, N: 8}
		return NewSlate(cfg, rng.New(312)), naiveSlate{NewSlate(cfg, rng.New(312))}
	})
}

// TestDistributedLeaderCache pins the lazy leader cache to the reference
// smallest-index-argmax scan through a run with many adoptions.
func TestDistributedLeaderCache(t *testing.T) {
	d := MustDistributed(DistributedConfig{K: 8, PopSize: 64}, rng.New(314))
	o := bandit.NewProblem(dist.Random("dl", 8, rng.New(315)))
	for cycle := 0; cycle < 200; cycle++ {
		arms := d.Sample()
		rewards := make([]float64, len(arms))
		for j, a := range arms {
			rewards[j] = o.Probe(a, d.rng)
		}
		d.Update(arms, rewards)
		want := 0
		for i, c := range d.counts {
			if c > d.counts[want] {
				want = i
			}
		}
		if got := d.Leader(); got != want {
			t.Fatalf("cycle %d: cached leader %d, scan %d", cycle, got, want)
		}
	}
}
