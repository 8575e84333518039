package scenario

import (
	"context"
	"strings"
	"testing"

	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/testsuite"
)

// The registry rows of each post-paper scenario family.
var (
	MultiHunkNames   = []string{"mh-pair", "mh-triple", "mh-quad"}
	DriftingNames    = []string{"drift-grow", "drift-movingfault", "drift-mixed"}
	AdversarialNames = []string{"adv-mild", "adv-rush"}
)

// Quick-to-build family profiles for unit tests (the registry profiles
// are exercised once each by TestFamilyRegistryProfilesGenerate).

func multiHunkSmall(seed uint64) Profile {
	return Profile{Name: "mh-small", Family: FamilyMultiHunk, Blocks: 16, Redundancy: 1.8,
		Options: 30, PositiveTests: 5, DefectEdits: 3, Seed: seed}
}

func driftSmall(seed uint64) Profile {
	return Profile{Name: "drift-small", Family: FamilyDrifting, Blocks: 12, Redundancy: 1.8,
		Options: 20, PositiveTests: 5, DriftSteps: 3, DriftInterval: 50, Seed: seed}
}

func adversarialSmall(seed uint64) Profile {
	return Profile{Name: "adv-small", Family: FamilyAdversarial, Blocks: 12, Redundancy: 1.8,
		Options: 20, PositiveTests: 5, CongestionLambda: 0.5, Seed: seed}
}

func TestFamilyNames(t *testing.T) {
	for _, n := range append(append([]string{}, CNames...), JavaNames...) {
		if fam := MustByName(n).FamilyName(); fam != FamilyPaper {
			t.Fatalf("%s family = %q, want %q", n, fam, FamilyPaper)
		}
	}
	groups := []struct {
		names []string
		fam   string
	}{
		{MultiHunkNames, FamilyMultiHunk},
		{DriftingNames, FamilyDrifting},
		{AdversarialNames, FamilyAdversarial},
	}
	for _, g := range groups {
		if len(g.names) == 0 {
			t.Fatalf("family %s has no registry profiles", g.fam)
		}
		for _, n := range g.names {
			p, err := ByName(n)
			if err != nil {
				t.Fatal(err)
			}
			if p.FamilyName() != g.fam {
				t.Fatalf("%s family = %q, want %q", n, p.FamilyName(), g.fam)
			}
		}
	}
}

// Every registry family profile must generate: validate() (including the
// proper-subset proof and per-phase drift invariants) passes for all of
// them. This is the per-profile calibration gate.
func TestFamilyRegistryProfilesGenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every family registry profile")
	}
	for _, names := range [][]string{MultiHunkNames, DriftingNames, AdversarialNames} {
		for _, n := range names {
			pr := MustByName(n)
			sc := Generate(pr)
			if sc.Profile.FamilyName() != pr.FamilyName() {
				t.Fatalf("%s: family not echoed", n)
			}
			if pr.Family == FamilyDrifting && sc.Drift.Len() != pr.DriftSteps {
				t.Fatalf("%s: drift steps = %d, want %d", n, sc.Drift.Len(), pr.DriftSteps)
			}
			if pr.Family == FamilyMultiHunk && len(sc.DefectStmts) != pr.DefectEdits {
				t.Fatalf("%s: defect sites = %d, want %d", n, len(sc.DefectStmts), pr.DefectEdits)
			}
		}
	}
}

// --- multi-hunk calibration ---

func TestMultiHunkCalibration(t *testing.T) {
	sc := Generate(multiHunkSmall(1))
	if len(sc.DefectStmts) != 3 || len(sc.Repairers) != 3 {
		t.Fatalf("sites = %d, repairers = %d, want 3/3", len(sc.DefectStmts), len(sc.Repairers))
	}
	runner := testsuite.NewRunner(sc.Suite)
	f := runner.Eval(context.Background(), sc.Program)
	if !f.Safe() || f.NegPassed != 0 {
		t.Fatalf("defective program fitness %v", f)
	}
	if !runner.Eval(context.Background(), sc.Correct).Repair() {
		t.Fatal("reference is not a repair")
	}
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, sc.Repairers)).Repair() {
		t.Fatal("canonical repairers do not repair")
	}
}

// Re-proves the validate() guarantee from outside: no proper subset of
// the canonical repairers passes the suite, so the repair genuinely needs
// all hunks.
func TestMultiHunkNoProperSubsetRepairs(t *testing.T) {
	sc := Generate(multiHunkSmall(2))
	runner := testsuite.NewRunner(sc.Suite)
	m := len(sc.Repairers)
	for mask := 1; mask < 1<<m-1; mask++ {
		var subset []mutation.Mutation
		for i := 0; i < m; i++ {
			if mask&(1<<i) != 0 {
				subset = append(subset, sc.Repairers[i])
			}
		}
		if runner.Eval(context.Background(), mutation.Apply(sc.Program, subset)).Repair() {
			t.Fatalf("proper subset %b repairs", mask)
		}
	}
}

// validate() must reject a scenario whose repairer set is not minimal —
// the check the leave-one-out-only enumeration could not make for
// non-maximal subsets.
func TestValidateRejectsSubsetRepairableScenario(t *testing.T) {
	sc := Generate(small(3))
	// Pad the canonical single repairer with a redundant copy of itself:
	// the singleton subset {repairer} repairs, so the pair is not a
	// genuinely multi-hunk repairer set.
	sc.Repairers = []mutation.Mutation{sc.Repairers[0], sc.Repairers[0]}
	err := sc.validate()
	if err == nil {
		t.Fatal("validate accepted a subset-repairable repairer set")
	}
	if !strings.Contains(err.Error(), "proper repairer subset") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// A random composition of fewer than DefectEdits pool mutations can never
// repair: each mutation edits one statement, and every defect site needs
// its own neutralization. The repair-density curve must be exactly zero
// below the coordination threshold — the signature that distinguishes the
// multi-hunk family from single-site profiles.
func TestMultiHunkRepairDensityZeroBelowThreshold(t *testing.T) {
	sc := Generate(multiHunkSmall(4))
	pl := sc.BuildPool(4, rng.New(40))
	dens := MeasureRepairDensity(pl, sc.Suite, []int{1, 2}, 80, rng.New(41))
	for i, d := range dens {
		if d != 0 {
			t.Fatalf("repair density %v at x=%d below the %d-edit threshold", d, i+1, len(sc.DefectStmts))
		}
	}
}

func TestMultiHunkSafeDensityDecays(t *testing.T) {
	sc := Generate(multiHunkSmall(5))
	pl := sc.BuildPool(4, rng.New(50))
	dens := MeasureSafeDensity(pl, sc.Suite, []int{1, 6, 14}, 60, rng.New(51))
	if dens[0] < 0.9 {
		t.Fatalf("single-mutation safe density %v, want ~1", dens[0])
	}
	if dens[2] > dens[0] {
		t.Fatalf("safe density did not decay: %v", dens)
	}
}

// --- drifting calibration ---

func TestDriftScheduleInvariants(t *testing.T) {
	sc := Generate(driftSmall(1))
	if sc.Drift.Len() != 3 {
		t.Fatalf("drift steps = %d, want 3", sc.Drift.Len())
	}
	prevProbes := int64(0)
	fps := map[uint64]string{sc.Suite.Fingerprint(): "phase0"}
	prev := sc.Suite
	for i, st := range sc.Drift.Steps {
		if st.AfterProbes <= prevProbes {
			t.Fatalf("step %d AfterProbes %d not increasing past %d", i, st.AfterProbes, prevProbes)
		}
		prevProbes = st.AfterProbes
		fp := st.Suite.Fingerprint()
		if who, dup := fps[fp]; dup {
			t.Fatalf("step %d suite fingerprint collides with %s", i, who)
		}
		fps[fp] = st.Kind

		// Per-phase repair invariants: defective still safe and failing,
		// reference and canonical repairers still repair.
		runner := testsuite.NewRunner(st.Suite)
		f := runner.Eval(context.Background(), sc.Program)
		if !f.Safe() || f.NegPassed != 0 {
			t.Fatalf("phase %d (%s): defective fitness %v", i+1, st.Kind, f)
		}
		if !runner.Eval(context.Background(), sc.Correct).Repair() {
			t.Fatalf("phase %d: reference not a repair", i+1)
		}
		if !runner.Eval(context.Background(), mutation.Apply(sc.Program, sc.Repairers)).Repair() {
			t.Fatalf("phase %d: repairers do not repair", i+1)
		}

		// Phases are cumulative: the previous phase's positives survive.
		if len(st.Suite.Positive) < len(prev.Positive) {
			t.Fatalf("phase %d dropped positives: %d -> %d", i+1, len(prev.Positive), len(st.Suite.Positive))
		}
		prev = st.Suite
	}
}

func TestDriftDeterministicInSeed(t *testing.T) {
	a, b := Generate(driftSmall(7)), Generate(driftSmall(7))
	if a.Drift.Len() != b.Drift.Len() {
		t.Fatal("step counts differ")
	}
	for i := range a.Drift.Steps {
		sa, sb := a.Drift.Steps[i], b.Drift.Steps[i]
		if sa.Kind != sb.Kind || sa.AfterProbes != sb.AfterProbes ||
			sa.Suite.Fingerprint() != sb.Suite.Fingerprint() {
			t.Fatalf("step %d differs: %+v vs %+v", i, sa, sb)
		}
	}
	c := Generate(driftSmall(8))
	if c.Drift.Steps[0].Suite.Fingerprint() == a.Drift.Steps[0].Suite.Fingerprint() {
		t.Fatal("different seeds produced identical drift phases")
	}
}

func TestDriftKindsShapeTheSuite(t *testing.T) {
	base := driftSmall(9)

	grow := base
	grow.DriftKind = testsuite.DriftTestsAdded
	sc := Generate(grow)
	n := len(sc.Suite.Positive)
	for i, st := range sc.Drift.Steps {
		if len(st.Suite.Positive) != n+i+1 {
			t.Fatalf("tests-added phase %d has %d positives, want %d", i+1, len(st.Suite.Positive), n+i+1)
		}
		if len(st.Suite.Negative) != len(sc.Suite.Negative) {
			t.Fatal("tests-added must not touch negatives")
		}
	}

	moved := base
	moved.DriftKind = testsuite.DriftFaultMoved
	sc = Generate(moved)
	prevNeg := sc.Suite.Negative[0].Input[0]
	for i, st := range sc.Drift.Steps {
		if len(st.Suite.Positive) != n {
			t.Fatalf("fault-moved phase %d changed positives", i+1)
		}
		got := st.Suite.Negative[0].Input[0]
		if got == prevNeg {
			t.Fatalf("fault-moved phase %d kept the bug input %d", i+1, got)
		}
		if got < bugThreshold {
			t.Fatalf("moved fault input %d below bug threshold", got)
		}
		prevNeg = got
	}

	rew := base
	rew.DriftKind = testsuite.DriftReweighted
	sc = Generate(rew)
	for i, st := range sc.Drift.Steps {
		if len(st.Suite.Positive) != n+i+1 {
			t.Fatalf("reweighted phase %d has %d positives", i+1, len(st.Suite.Positive))
		}
		// The added test duplicates an existing one's inputs and outputs.
		dup := st.Suite.Positive[len(st.Suite.Positive)-1]
		found := false
		for _, p := range sc.Suite.Positive {
			if p.Input[0] == dup.Input[0] && p.Input[1] == dup.Input[1] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("reweighted phase %d added a non-duplicate test", i+1)
		}
	}
}

func TestDriftUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate accepted an unknown drift kind")
		}
	}()
	bad := driftSmall(10)
	bad.DriftKind = "chaos-monkey"
	Generate(bad)
}

func TestStationaryProfilesHaveNoDrift(t *testing.T) {
	if sc := Generate(small(11)); sc.Drift != nil {
		t.Fatal("stationary profile grew a drift schedule")
	}
}

// --- adversarial calibration ---

func TestAdversarialCalibration(t *testing.T) {
	sc := Generate(adversarialSmall(1))
	if sc.Profile.CongestionLambda != 0.5 {
		t.Fatalf("lambda = %v", sc.Profile.CongestionLambda)
	}
	// The congestion pricing changes cost accounting, not the repair
	// problem: standard calibration invariants hold unchanged.
	runner := testsuite.NewRunner(sc.Suite)
	f := runner.Eval(context.Background(), sc.Program)
	if !f.Safe() || f.NegPassed != 0 {
		t.Fatalf("defective fitness %v", f)
	}
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, sc.Repairers)).Repair() {
		t.Fatal("repairers do not repair")
	}
	pl := sc.BuildPool(4, rng.New(60))
	dens := MeasureRepairDensity(pl, sc.Suite, []int{1, 2, 4}, 80, rng.New(61))
	total := 0.0
	for _, d := range dens {
		total += d
	}
	if total == 0 {
		t.Fatalf("no repairs at any x: %v", dens)
	}
}

// --- FromSource admission (satellite: reject, don't clamp) ---

const fromSourceProg = "input n\nset x = n + 1\nprint x\n"

func fromSourceSuite() *testsuite.Suite {
	return &testsuite.Suite{
		Positive: []testsuite.Test{{Name: "p", Input: []int64{1}, Want: []int64{2}}},
		Negative: []testsuite.Test{{Name: "n", Input: []int64{5}, Want: []int64{7}}},
	}
}

func TestFromSourceRejectsNegativeKnobs(t *testing.T) {
	if _, err := FromSource("neg-pool", fromSourceProg, fromSourceSuite(), -1, 0); err == nil {
		t.Fatal("negative poolTarget accepted")
	}
	if _, err := FromSource("neg-opts", fromSourceProg, fromSourceSuite(), 0, -3); err == nil {
		t.Fatal("negative options accepted")
	}
	sc, err := FromSource("ok", fromSourceProg, fromSourceSuite(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Profile.PoolTarget != DefaultSourcePoolTarget {
		t.Fatalf("poolTarget = %d, want default %d", sc.Profile.PoolTarget, DefaultSourcePoolTarget)
	}
}
