package core

import (
	"context"

	"testing"

	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

func smallScenario(t *testing.T, seed uint64) (*scenario.Scenario, *pool.Pool) {
	t.Helper()
	sc := scenario.Generate(scenario.Profile{
		Name: "core-test", Blocks: 12, Redundancy: 2.0, Options: 20, PositiveTests: 5, Seed: seed,
	})
	pl := sc.BuildPool(4, rng.New(seed^0xbeef))
	return sc, pl
}

func TestArms(t *testing.T) {
	_, pl := smallScenario(t, 1)
	if got := Arms(pl, Config{}); got != pl.Size() {
		t.Fatalf("Arms = %d, want pool size %d", got, pl.Size())
	}
	if got := Arms(pl, Config{MaxX: 5}); got != 5 {
		t.Fatalf("Arms with MaxX = %d", got)
	}
	if got := Arms(pl, Config{MaxX: 10 * pl.Size()}); got != pl.Size() {
		t.Fatalf("Arms with oversized MaxX = %d", got)
	}
}

func TestRepairFindsPatchStandard(t *testing.T) {
	sc, pl := smallScenario(t, 2)
	seed := rng.New(10)
	cfg := Config{MaxIter: 2000, Workers: 4, MaxX: 20}
	res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, seed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Fatalf("no repair in %d iterations (%d probes)", res.Iterations, res.Probes)
	}
	// The reported patch must actually repair the program.
	runner := testsuite.NewRunner(sc.Suite)
	mutant := mutation.Apply(sc.Program, res.Patch)
	if !runner.Eval(context.Background(), mutant).Repair() {
		t.Fatal("reported patch does not repair")
	}
	if res.Program == nil || !runner.Eval(context.Background(), res.Program).Repair() {
		t.Fatal("reported program is not a repair")
	}
}

func TestRepairAllAlgorithms(t *testing.T) {
	sc, pl := smallScenario(t, 3)
	for _, alg := range mwu.Names {
		seed := rng.New(20)
		res, err := RepairWithAlgorithm(context.Background(), alg, pl, sc.Suite, seed, Config{MaxIter: 3000, Workers: 4, MaxX: 20})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.Repaired {
			t.Fatalf("%s: no repair in %d iterations", alg, res.Iterations)
		}
	}
}

func TestRepairEarlyTermination(t *testing.T) {
	// Once a repair is found, the run must stop promptly (within one
	// iteration of the capture).
	sc, pl := smallScenario(t, 4)
	seed := rng.New(30)
	res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, seed, Config{MaxIter: 5000, Workers: 1, MaxX: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired {
		t.Skip("seed did not repair; early-termination unobservable")
	}
	if res.Iterations >= 5000 {
		t.Fatalf("repair found but run consumed all %d iterations", res.Iterations)
	}
	_ = sc
}

func TestRepairDeterministicUnderSeed(t *testing.T) {
	sc, pl := smallScenario(t, 5)
	run := func() Result {
		res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, rng.New(40), Config{MaxIter: 1000, Workers: 1, MaxX: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Repaired != b.Repaired || a.Iterations != b.Iterations {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	if a.Repaired {
		if len(a.Patch) != len(b.Patch) {
			t.Fatal("patches differ across identical runs")
		}
		for i := range a.Patch {
			if a.Patch[i] != b.Patch[i] {
				t.Fatal("patch contents differ")
			}
		}
	}
}

func TestRepairLearnerMismatchPanics(t *testing.T) {
	sc, pl := smallScenario(t, 6)
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: "standard", K: 3}, rng.New(1)) // wrong arm count
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Repair(context.Background(), pl, sc.Suite, learner, rng.New(2), Config{MaxX: 20})
}

func TestRepairUnknownAlgorithm(t *testing.T) {
	sc, pl := smallScenario(t, 7)
	if _, err := RepairWithAlgorithm(context.Background(), "nope", pl, sc.Suite, rng.New(1), Config{MaxX: 5}); err == nil {
		t.Fatal("expected error")
	}
	_ = sc
}

func TestRewardPolicies(t *testing.T) {
	sc, pl := smallScenario(t, 8)
	runner := testsuite.NewRunner(sc.Suite)
	k := 20
	r := rng.New(50)

	// Safety policy: probing x=1 (arm 0) with safe pool mutations should
	// almost always reward 1 (single pool mutations are safe by
	// construction; only the sampling of a repairing mutation changes
	// anything, and repairs also return 1).
	oSafety := &repairOracle{pl: pl, runner: runner, k: k, policy: RewardSafety}
	rewards := 0.0
	for i := 0; i < 50; i++ {
		rewards += oSafety.Probe(0, r)
	}
	if rewards < 45 {
		t.Fatalf("safety policy rewarded %v/50 on single safe mutations", rewards)
	}

	// Throughput policy at arm 0 rewards with probability ~S(1)·(1/k).
	oThr := &repairOracle{pl: pl, runner: runner, k: k, policy: RewardThroughput}
	rewards = 0
	for i := 0; i < 300; i++ {
		rewards += oThr.Probe(0, r)
	}
	rate := rewards / 300
	if rate > 0.25 {
		t.Fatalf("throughput policy rate %v at x=1, want ≈1/20", rate)
	}
}

func TestFitnessEvalsCounted(t *testing.T) {
	sc, pl := smallScenario(t, 9)
	res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, rng.New(60), Config{MaxIter: 50, Workers: 1, MaxX: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes == 0 {
		t.Fatal("no probes recorded")
	}
	if res.FitnessEvals == 0 {
		t.Fatal("no fitness evaluations recorded")
	}
	// Deduplication can only reduce evals below probes.
	if res.FitnessEvals > res.Probes {
		t.Fatalf("evals %d > probes %d", res.FitnessEvals, res.Probes)
	}
	_ = sc
}

func TestLearnedArmInRange(t *testing.T) {
	sc, pl := smallScenario(t, 11)
	res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, rng.New(70), Config{MaxIter: 200, Workers: 2, MaxX: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.LearnedArm < 1 || res.LearnedArm > 20 {
		t.Fatalf("learned arm %d out of [1,20]", res.LearnedArm)
	}
	_ = sc
}

// chainSource adds a spurious 7 to large inputs through a chain of
// temporaries, so deleting any of the chain's five statements repairs it:
// one cycle's probes often find several distinct repairs.
const chainSource = `input n
set acc = n
if n < 100 goto ok
set t0 = 7
set t1 = t0
set t2 = t1
set t3 = t2
set acc = acc + t3
label ok
print acc
halt
`

// TestReportedPatchIndependentOfWorkers pins the reported patch when one
// cycle holds several repairing probes: the oracle keeps the least repair
// under a fixed order, not the first to finish, so a run at 8 workers
// reports exactly the patch of a run at 1.
func TestReportedPatchIndependentOfWorkers(t *testing.T) {
	test := func(name string, n int64) testsuite.Test {
		return testsuite.Test{Name: name, Input: []int64{n}, Want: []int64{n}}
	}
	sc, err := scenario.FromSource("chain", chainSource, &testsuite.Suite{
		Positive: []testsuite.Test{test("p1", 1), test("p2", 3), test("p3", 99)},
		Negative: []testsuite.Test{test("bug", 500)},
	}, 24, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 24; seed++ {
		pl := sc.BuildPool(2, rng.New(seed))
		run := func(workers int) Result {
			res, err := RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite,
				rng.New(seed), Config{Workers: workers, MaxIter: 200})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Repaired {
				t.Fatalf("seed %d, %d workers: no repair", seed, workers)
			}
			return res
		}
		if one, eight := patchID(run(1).Patch), patchID(run(8).Patch); one != eight {
			t.Fatalf("seed %d: patch %s at 1 worker, %s at 8", seed, one, eight)
		}
	}
}

func patchID(muts []mutation.Mutation) string {
	id := ""
	for _, m := range muts {
		id += m.ID() + " "
	}
	return id
}
