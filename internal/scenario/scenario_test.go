package scenario

import (
	"context"

	"math"
	"testing"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/testsuite"
)

// small returns a quick-to-build profile for unit tests.
func small(seed uint64) Profile {
	return Profile{Name: "small", Blocks: 12, Redundancy: 2.0, Options: 20, PositiveTests: 5, Seed: seed}
}

func TestGenerateInvariants(t *testing.T) {
	sc := Generate(small(1))
	runner := testsuite.NewRunner(sc.Suite)

	f := runner.Eval(context.Background(), sc.Program)
	if !f.Safe() {
		t.Fatalf("defective program fails regression tests: %v", f)
	}
	if f.Repair() {
		t.Fatal("defective program should fail the bug test")
	}
	if !runner.Eval(context.Background(), sc.Correct).Repair() {
		t.Fatal("reference program is not a repair")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(small(7))
	b := Generate(small(7))
	if a.Program.String() != b.Program.String() {
		t.Fatal("same seed produced different programs")
	}
	if len(a.Suite.Positive) != len(b.Suite.Positive) {
		t.Fatal("suites differ")
	}
	for i := range a.Suite.Positive {
		ta, tb := a.Suite.Positive[i], b.Suite.Positive[i]
		if ta.Input[0] != tb.Input[0] || ta.Input[1] != tb.Input[1] {
			t.Fatal("test inputs differ")
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(small(1))
	b := Generate(small(2))
	if a.Program.String() == b.Program.String() {
		t.Fatal("different seeds produced identical programs")
	}
}

func TestDefectRepairableByDeletion(t *testing.T) {
	sc := Generate(small(3))
	var dels []mutation.Mutation
	for _, d := range sc.DefectStmts {
		dels = append(dels, mutation.Mutation{Op: mutation.Delete, At: d})
	}
	fix := mutation.Apply(sc.Program, dels)
	if !testsuite.NewRunner(sc.Suite).Eval(context.Background(), fix).Repair() {
		t.Fatal("deleting defect statements does not repair")
	}
}

func TestDefectLineCovered(t *testing.T) {
	sc := Generate(small(4))
	cov := testsuite.Coverage(sc.Program, sc.Suite)
	for _, d := range sc.DefectStmts {
		if !cov[d] {
			t.Fatalf("defect statement %d not covered by suite", d)
		}
	}
	// But positive tests alone must NOT cover any site (defects are
	// guarded).
	posOnly := &testsuite.Suite{Positive: sc.Suite.Positive}
	cov = testsuite.Coverage(sc.Program, posOnly)
	for _, d := range sc.DefectStmts {
		if cov[d] {
			t.Fatalf("defect %d executes under regression inputs; guard broken", d)
		}
	}
}

func TestProgramAndReferenceDifferOnlyAtDefect(t *testing.T) {
	sc := Generate(small(5))
	if sc.Program.Len() != sc.Correct.Len() {
		t.Fatal("program lengths differ")
	}
	sites := map[int]bool{}
	for _, d := range sc.DefectStmts {
		sites[d] = true
	}
	diffs := 0
	for i := range sc.Program.Stmts {
		if sc.Program.Stmts[i].String() != sc.Correct.Stmts[i].String() {
			diffs++
			if !sites[i] {
				t.Fatalf("unexpected difference at stmt %d", i)
			}
		}
	}
	if diffs != len(sc.DefectStmts) {
		t.Fatalf("programs differ in %d statements, want %d", diffs, len(sc.DefectStmts))
	}
}

func TestBuildPoolProducesSafeMutations(t *testing.T) {
	sc := Generate(small(6))
	pl := sc.BuildPool(4, rng.New(100))
	if pl.Size() < sc.Profile.Options {
		t.Fatalf("pool size %d below options %d", pl.Size(), sc.Profile.Options)
	}
	// Spot-check safety of a few pool members.
	runner := testsuite.NewRunner(sc.Suite)
	r := rng.New(101)
	muts := pl.Mutations()
	for i := 0; i < 10; i++ {
		m := muts[r.Intn(len(muts))]
		mutant := mutation.Apply(sc.Program, []mutation.Mutation{m})
		if !runner.Eval(context.Background(), mutant).Safe() {
			t.Fatalf("pool mutation %v unsafe", m.ID())
		}
	}
}

func TestSafeMutationRateRealistic(t *testing.T) {
	// The paper reports ≈30% of whole-statement mutations are safe; our
	// generated programs should land in a broad band around that.
	// (The upper bound allows for Stats.Safe counting every safe finding;
	// it used to be truncated at the pool target, biasing the rate low.)
	sc := Generate(Profile{Name: "rate", Blocks: 30, Redundancy: 2.0, Options: 50, PositiveTests: 6, Seed: 11})
	pl := sc.BuildPool(4, rng.New(200))
	rate := pl.Stats().SafeRate()
	if rate < 0.10 || rate > 0.70 {
		t.Fatalf("safe mutation rate %.3f outside [0.10, 0.70]", rate)
	}
}

func TestSafeDensityDecreasesWithX(t *testing.T) {
	sc := Generate(small(8))
	pl := sc.BuildPool(4, rng.New(300))
	xs := []int{1, 4, 10, 18}
	r := rng.New(301)
	dens := MeasureSafeDensity(pl, sc.Suite, xs, 60, r)
	if dens[0] < 0.9 {
		t.Fatalf("single safe mutation density %v, want ~1", dens[0])
	}
	// Broad monotone trend: composing many mutations is riskier than one.
	if dens[len(dens)-1] > dens[0] {
		t.Fatalf("density did not decay: %v", dens)
	}
}

func TestSafeDensityNaNBeyondPool(t *testing.T) {
	sc := Generate(small(9))
	pl := sc.BuildPool(4, rng.New(400))
	dens := MeasureSafeDensity(pl, sc.Suite, []int{pl.Size() + 1}, 5, rng.New(401))
	if !math.IsNaN(dens[0]) {
		t.Fatalf("expected NaN beyond pool size, got %v", dens[0])
	}
}

func TestRepairDensityPositiveSomewhere(t *testing.T) {
	sc := Generate(small(10))
	pl := sc.BuildPool(4, rng.New(500))
	xs := []int{1, 2, 4, 8, 12}
	dens := MeasureRepairDensity(pl, sc.Suite, xs, 100, rng.New(501))
	total := 0.0
	for _, d := range dens {
		total += d
	}
	if total == 0 {
		t.Fatalf("no repairs found at any x: %v (pool %d)", dens, pl.Size())
	}
}

func TestRegistryNamesResolve(t *testing.T) {
	for _, name := range append(append([]string{}, CNames...), JavaNames...) {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("ByName(%q) = %q", name, p.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestRegistrySizesMatchPaper(t *testing.T) {
	want := map[string]int{
		"units":              1000,
		"gzip-2009-08-16":    5000,
		"gzip-2009-09-26":    2000,
		"libtiff-2005-12-14": 100,
		"lighttpd-1806-1807": 50,
		"Chart26":            100,
		"Closure13":          100,
		"Closure22":          100,
		"Math8":              100,
		"Math80":             100,
	}
	for name, size := range want {
		p := MustByName(name)
		if p.Options != size {
			t.Fatalf("%s options = %d, want %d", name, p.Options, size)
		}
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustByName("no-such-scenario")
}

func TestSmallRegistryScenarioGenerates(t *testing.T) {
	// Full-size registry scenarios are exercised by the experiment
	// harness; here validate the smallest one end to end.
	sc := Generate(MustByName("lighttpd-1806-1807"))
	if sc.Program.Len() < 50 {
		t.Fatalf("program suspiciously small: %d statements", sc.Program.Len())
	}
	if len(sc.Suite.Positive) != 6 || len(sc.Suite.Negative) != 1 {
		t.Fatalf("suite sizes: %d/%d", len(sc.Suite.Positive), len(sc.Suite.Negative))
	}
}

func TestGeneratedProgramParsesAndRuns(t *testing.T) {
	sc := Generate(small(12))
	reparsed, err := lang.Parse(sc.Program.String())
	if err != nil {
		t.Fatalf("generated program does not reparse: %v", err)
	}
	tc := sc.Suite.Positive[0]
	res := lang.Run(reparsed, lang.Options{Input: tc.Input})
	if res.Err != nil {
		t.Fatalf("reparsed program fails: %v", res.Err)
	}
}

func multiEdit(seed uint64, edits int) Profile {
	return Profile{Name: "multi", Blocks: 16, Redundancy: 2.0, Options: 30,
		PositiveTests: 5, DefectEdits: edits, Seed: seed}
}

func TestMultiEditDefectStmts(t *testing.T) {
	sc := Generate(multiEdit(21, 2))
	if len(sc.DefectStmts) != 2 {
		t.Fatalf("defects = %v", sc.DefectStmts)
	}
	if sc.DefectStmts[0] == sc.DefectStmts[1] {
		t.Fatal("defects collided")
	}
}

func TestMultiEditNoSingleDeleteRepairs(t *testing.T) {
	sc := Generate(multiEdit(22, 2))
	runner := testsuite.NewRunner(sc.Suite)
	for _, d := range sc.DefectStmts {
		one := mutation.Apply(sc.Program, []mutation.Mutation{{Op: mutation.Delete, At: d}})
		if runner.Eval(context.Background(), one).Repair() {
			t.Fatalf("single delete at %d repaired a 2-edit defect", d)
		}
	}
	var both []mutation.Mutation
	for _, d := range sc.DefectStmts {
		both = append(both, mutation.Mutation{Op: mutation.Delete, At: d})
	}
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, both)).Repair() {
		t.Fatal("deleting both defects does not repair")
	}
}

func TestMultiEditPoolContainsAllRepairers(t *testing.T) {
	sc := Generate(multiEdit(23, 3))
	pl := sc.BuildPool(4, rng.New(700))
	for _, d := range sc.DefectStmts {
		if !poolHas(pl, mutation.Mutation{Op: mutation.Delete, At: d}) {
			t.Fatalf("pool missing delete@%d", d)
		}
	}
}

func TestGuardDecoysShareDefectCoverage(t *testing.T) {
	// Decoys execute only under the bug input, like the defect, so fault
	// localization sees many equally suspicious statements.
	sc := Generate(small(24))
	posOnly := &testsuite.Suite{Positive: sc.Suite.Positive}
	covAll := testsuite.Coverage(sc.Program, sc.Suite)
	covPos := testsuite.Coverage(sc.Program, posOnly)
	negOnly := 0
	for i := range covAll {
		if covAll[i] && !covPos[i] {
			negOnly++
		}
	}
	// Defect + GuardDecoys (default 12) statements are negative-only.
	if negOnly != 13 {
		t.Fatalf("negative-only statements = %d, want 13", negOnly)
	}
}

func wrongCode(seed uint64) Profile {
	return Profile{Name: "wrong", Blocks: 20, Redundancy: 2.0, Options: 30,
		PositiveTests: 5, Kind: DefectWrongCode, Twins: 3, Seed: seed}
}

func TestWrongCodeRepairers(t *testing.T) {
	sc := Generate(wrongCode(31))
	if len(sc.Repairers) != 1 {
		t.Fatalf("repairers = %v", sc.Repairers)
	}
	m := sc.Repairers[0]
	if m.Op != mutation.Replace {
		t.Fatalf("repairer op = %v, want replace", m.Op)
	}
	runner := testsuite.NewRunner(sc.Suite)
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, sc.Repairers)).Repair() {
		t.Fatal("twin replacement does not repair")
	}
}

func TestWrongCodeDeleteDoesNotRepair(t *testing.T) {
	sc := Generate(wrongCode(32))
	runner := testsuite.NewRunner(sc.Suite)
	del := mutation.Apply(sc.Program, []mutation.Mutation{{Op: mutation.Delete, At: sc.DefectStmts[0]}})
	if runner.Eval(context.Background(), del).Repair() {
		t.Fatal("deleting a wrong-code defect must not repair")
	}
}

func TestWrongCodeTwinsAreExactCopiesOfCorrectForm(t *testing.T) {
	sc := Generate(wrongCode(33))
	correctStmt := sc.Correct.Stmts[sc.DefectStmts[0]].String()
	if len(sc.TwinStmts[0]) != 3 {
		t.Fatalf("twins = %v", sc.TwinStmts)
	}
	for _, tw := range sc.TwinStmts[0] {
		if sc.Program.Stmts[tw].String() != correctStmt {
			t.Fatalf("twin %d = %q, want %q", tw, sc.Program.Stmts[tw].String(), correctStmt)
		}
	}
}

func TestWrongCodeAnyTwinRepairs(t *testing.T) {
	sc := Generate(wrongCode(34))
	runner := testsuite.NewRunner(sc.Suite)
	for _, tw := range sc.TwinStmts[0] {
		fix := mutation.Apply(sc.Program, []mutation.Mutation{{Op: mutation.Replace, At: sc.DefectStmts[0], From: tw}})
		if !runner.Eval(context.Background(), fix).Repair() {
			t.Fatalf("replacement with twin %d does not repair", tw)
		}
	}
}

func TestWrongCodePoolContainsRepairer(t *testing.T) {
	sc := Generate(wrongCode(35))
	pl := sc.BuildPool(4, rng.New(800))
	if !poolHas(pl, sc.Repairers[0]) {
		t.Fatal("pool missing the canonical replacement repairer")
	}
}

func TestDefectKindString(t *testing.T) {
	if DefectDelete.String() != "delete" || DefectWrongCode.String() != "wrong-code" {
		t.Fatal("kind strings wrong")
	}
}

// poolHas reports whether a mutation with m's identity is in pl.
func poolHas(pl *pool.Pool, m mutation.Mutation) bool {
	for _, pm := range pl.Mutations() {
		if pm.ID() == m.ID() {
			return true
		}
	}
	return false
}
