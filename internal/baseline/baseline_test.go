package baseline

import (
	"context"

	"testing"

	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

func smallScenario(t *testing.T, seed uint64) *scenario.Scenario {
	t.Helper()
	return scenario.Generate(scenario.Profile{
		Name: "baseline-test", Blocks: 12, Redundancy: 2.0, Options: 20, PositiveTests: 5, Seed: seed,
	})
}

func TestFaultLocalization(t *testing.T) {
	sc := smallScenario(t, 1)
	pr := NewProblem(sc.Program, sc.Suite)
	// The defect statement runs only under the bug-inducing input, so it
	// must carry the maximum weight 1.0.
	if pr.weights[sc.DefectStmts[0]] != 1.0 {
		t.Fatalf("defect weight = %v, want 1.0", pr.weights[sc.DefectStmts[0]])
	}
	// Statements covered by both get 0.1.
	saw01 := false
	for _, w := range pr.weights {
		if w == 0.1 {
			saw01 = true
		}
	}
	if !saw01 {
		t.Fatal("no shared-coverage statements weighted 0.1")
	}
	if len(pr.Targets()) == 0 {
		t.Fatal("no fault-localized targets")
	}
}

func TestRandomMutationPrefersSuspicious(t *testing.T) {
	sc := smallScenario(t, 2)
	pr := NewProblem(sc.Program, sc.Suite)
	r := rng.New(3)
	hits := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if pr.randomMutation(r).At == sc.DefectStmts[0] {
			hits++
		}
	}
	// With weight 1.0 vs ~0.1 for dozens of others, the defect should be
	// targeted far more often than uniform.
	uniform := float64(trials) / float64(len(pr.Targets()))
	if float64(hits) < 2*uniform {
		t.Fatalf("defect targeted %d times, uniform would be %.0f", hits, uniform)
	}
}

func TestGenProgRepairs(t *testing.T) {
	sc := smallScenario(t, 4)
	pr := NewProblem(sc.Program, sc.Suite)
	res := GenProg(pr, rng.New(5), Config{MaxEvals: 10000})
	if !res.Repaired {
		t.Fatalf("GenProg failed: %d evals, %d generations", res.FitnessEvals, res.Generations)
	}
	// Verify the patch.
	runner := testsuite.NewRunner(sc.Suite)
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, res.Patch)).Repair() {
		t.Fatal("reported patch does not repair")
	}
	if res.FitnessEvals <= 0 || res.Latency <= 0 {
		t.Fatalf("accounting: %+v", res)
	}
}

func TestRSRepairRepairs(t *testing.T) {
	sc := smallScenario(t, 6)
	pr := NewProblem(sc.Program, sc.Suite)
	res := RSRepair(pr, rng.New(7), Config{MaxEvals: 20000})
	if !res.Repaired {
		t.Fatalf("RSRepair failed after %d evals", res.FitnessEvals)
	}
	runner := testsuite.NewRunner(sc.Suite)
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, res.Patch)).Repair() {
		t.Fatal("reported patch does not repair")
	}
}

func TestAERepairsDeterministically(t *testing.T) {
	sc := smallScenario(t, 8)
	pr := NewProblem(sc.Program, sc.Suite)
	res := AE(pr, rng.New(9), Config{MaxEvals: 50000})
	if !res.Repaired {
		t.Fatalf("AE failed after %d evals", res.FitnessEvals)
	}
	if len(res.Patch) != 1 {
		t.Fatalf("AE patch size %d, want single edit", len(res.Patch))
	}
	// Determinism: same result regardless of seed.
	pr2 := NewProblem(sc.Program, sc.Suite)
	res2 := AE(pr2, rng.New(12345), Config{MaxEvals: 50000})
	if res2.Patch[0] != res.Patch[0] || res2.CandidatesTried != res.CandidatesTried {
		t.Fatalf("AE not deterministic: %+v vs %+v", res, res2)
	}
}

func TestAEDeduplicationEconomy(t *testing.T) {
	// Two edits that produce the same mutant (swapping a statement with an
	// identical twin, in either direction) must cost one evaluation: the
	// equivalence-class economy AE is named for.
	sc := smallScenario(t, 10)
	pr := NewProblem(sc.Program, sc.Suite)
	before := pr.runner.Evals()
	pr.evaluate([]mutation.Mutation{{Op: mutation.Delete, At: sc.DefectStmts[0]}})
	pr.evaluate([]mutation.Mutation{{Op: mutation.Delete, At: sc.DefectStmts[0]}})
	if got := pr.runner.Evals() - before; got != 1 {
		t.Fatalf("identical mutants cost %d evals, want 1", got)
	}
	if pr.runner.CacheHits() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestBudgetRespected(t *testing.T) {
	sc := smallScenario(t, 14)
	for name, run := range map[string]func(*Problem, *rng.RNG, Config) Result{
		"GenProg":  GenProg,
		"RSRepair": RSRepair,
		"AE":       AE,
	} {
		pr := NewProblem(sc.Program, sc.Suite)
		res := run(pr, rng.New(15), Config{MaxEvals: 50})
		if res.FitnessEvals > 55 { // small overshoot tolerated (batch granularity)
			t.Fatalf("%s: evals %d exceeded budget 50", name, res.FitnessEvals)
		}
	}
}

func TestGenProgDeterministicUnderSeed(t *testing.T) {
	sc := smallScenario(t, 16)
	run := func() Result {
		pr := NewProblem(sc.Program, sc.Suite)
		return GenProg(pr, rng.New(17), Config{MaxEvals: 2000})
	}
	a, b := run(), run()
	if a.Repaired != b.Repaired || a.CandidatesTried != b.CandidatesTried || a.Generations != b.Generations {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestMultiHunkLocalizationCoversAllSites(t *testing.T) {
	// Multi-hunk scenarios seed several defect sites; coverage-based
	// localization must flag every one at maximum suspicion, not just
	// DefectStmts[0] — the single-site assumption this PR's audit
	// removed.
	sc := scenario.Generate(scenario.Profile{
		Name: "baseline-mh", Blocks: 16, Redundancy: 1.8, Options: 30,
		PositiveTests: 5, DefectEdits: 3, Seed: 21,
	})
	if len(sc.DefectStmts) != 3 {
		t.Fatalf("defect sites = %v", sc.DefectStmts)
	}
	pr := NewProblem(sc.Program, sc.Suite)
	targets := map[int]bool{}
	for _, s := range pr.Targets() {
		targets[s] = true
	}
	for _, d := range sc.DefectStmts {
		if pr.weights[d] != 1.0 {
			t.Fatalf("defect %d weight = %v, want 1.0", d, pr.weights[d])
		}
		if !targets[d] {
			t.Fatalf("defect %d not among localization targets", d)
		}
	}
}
