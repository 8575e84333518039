// Package scenario generates the synthetic repair scenarios that stand in
// for the paper's C (ManyBugs + units) and Java (Defects4J) benchmark
// subjects.
//
// A scenario is a TinyLang program with a seeded defect plus a regression
// test suite: the defective program passes every positive test and fails
// the negative (bug-inducing) tests, and at least one single whole-
// statement mutation repairs it by construction. Programs are built from
// blocks that mix essential computation (an accumulator chain whose value
// the tests check) with redundancy — twin recomputations, dead
// temporaries, no-ops — so that a realistic fraction of random
// whole-statement mutations preserves required functionality (the paper
// reports ≈30% for C and Java), and combined mutations interact negatively
// through real execution (Fig. 4a) rather than by stipulation.
//
// The defect is an input-guarded corruption of the accumulator: only
// inputs at or above a threshold execute the defective statement, so the
// shipped regression tests pass while the bug-inducing test fails.
// Deleting the defective statement repairs the program, and the defective
// line is executed by the bug-inducing test, so the repair is inside the
// mutation search space exactly as in GenProg-style APR.
package scenario

import (
	"context"
	"fmt"
	"math"

	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// Profile parameterizes scenario generation. The named profiles in
// Registry approximate the paper's benchmark subjects.
type Profile struct {
	// Name identifies the scenario (e.g. "gzip-2009-08-16").
	Name string
	// Blocks is the number of computation blocks (program size driver).
	Blocks int
	// Redundancy is the expected number of redundant statements per block
	// (may be fractional).
	Redundancy float64
	// Options is the bandit arm count K: the online phase chooses how many
	// pool mutations (1..K) to compose per probe. This is the scenario
	// "size" reported in the paper's tables.
	Options int
	// PoolTarget is the safe-mutation pool size to precompute; 0 means
	// Options plus 10% slack.
	PoolTarget int
	// PositiveTests is the regression suite size.
	PositiveTests int
	// DefectEdits is the number of independent seeded defect statements,
	// all of which must be neutralized to repair the program. 1 gives a
	// classic single-edit defect; 2 or 3 give the multi-edit defects that
	// defeat single-edit repair tools (the paper's motivation for
	// composing many mutations). Default 1.
	DefectEdits int
	// GuardDecoys is the number of inert statements placed inside each
	// defect's input guard. They execute only under bug-inducing inputs,
	// so fault localization flags them exactly as suspicious as the real
	// defect — the noise that makes localization realistic. Default 12.
	GuardDecoys int
	// Kind selects the defect flavour: DefectDelete (an extra harmful
	// statement; deleting it repairs) or DefectWrongCode (a statement with
	// the wrong constant; the repair must replace it with one of the
	// correct twin statements planted elsewhere in the program — deletion
	// loses a required contribution and does not repair). Wrong-code
	// defects are substantially harder for the baselines because only the
	// exact twin replacements repair. Default DefectDelete.
	Kind DefectKind
	// Twins is the number of correct twin statements planted per
	// wrong-code defect (ignored for DefectDelete). Default 3.
	Twins int
	// Family labels the scenario family for listings and reports:
	// "paper" (the default; stationary single- or multi-edit profiles
	// matching the paper's benchmarks), "multi-hunk" (repair requires
	// coordinated edits at 2–4 sites), "drifting" (the suite changes
	// mid-run on a deterministic schedule), "adversarial" (probe cost
	// scales with realized arm congestion). Empty means "paper".
	Family string
	// DriftSteps is the number of scheduled suite changes for drifting
	// scenarios; 0 (the default) keeps the suite stationary.
	DriftSteps int
	// DriftInterval is the cumulative-probe spacing between drift steps:
	// step s arms once the run has issued s*DriftInterval probes. Probe
	// counts are worker-invariant, so the schedule is too. Default 400
	// when DriftSteps > 0.
	DriftInterval int64
	// DriftKind selects the per-step suite change: one of
	// testsuite.DriftTestsAdded, DriftFaultMoved, DriftReweighted, or
	// "mixed" (the default) to cycle through all three.
	DriftKind string
	// CongestionLambda prices probe cost by realized arm load for
	// adversarial/congestion scenarios: a probe on an arm chosen by load
	// agents this cycle costs 1 + CongestionLambda*(load-1) cost units
	// (internal/congestion's linear latency model). 0 (the default)
	// keeps the classic unit-cost accounting.
	CongestionLambda float64
	// Seed drives all generation randomness.
	Seed uint64
}

// Scenario family names, as carried in Profile.Family.
const (
	FamilyPaper       = "paper"
	FamilyMultiHunk   = "multi-hunk"
	FamilyDrifting    = "drifting"
	FamilyAdversarial = "adversarial"
)

// FamilyName returns the profile's family label, defaulting to
// FamilyPaper for profiles that predate families.
func (p Profile) FamilyName() string {
	if p.Family == "" {
		return FamilyPaper
	}
	return p.Family
}

// DefectKind selects the seeded defect flavour.
type DefectKind int

const (
	// DefectDelete seeds an extra harmful guarded statement.
	DefectDelete DefectKind = iota
	// DefectWrongCode seeds a guarded statement with a corrupted constant
	// whose correct form exists elsewhere in the program.
	DefectWrongCode
)

func (k DefectKind) String() string {
	if k == DefectWrongCode {
		return "wrong-code"
	}
	return "delete"
}

func (p *Profile) fill() {
	if p.Blocks <= 0 {
		p.Blocks = 40
	}
	if p.Redundancy <= 0 {
		p.Redundancy = 2.0
	}
	if p.Options <= 0 {
		p.Options = 100
	}
	if p.PoolTarget <= 0 {
		p.PoolTarget = p.Options + p.Options/10 + 8
		// Small pools are unreliable samples of the mutation space: the
		// density of repairing mutations is well under 1%, so a pool much
		// smaller than ~200 often contains none and the scenario would be
		// unrepairable through no fault of the search. Keep a floor.
		if p.PoolTarget < 200 {
			p.PoolTarget = 200
		}
	}
	if p.PositiveTests <= 0 {
		p.PositiveTests = 8
	}
	if p.DefectEdits <= 0 {
		p.DefectEdits = 1
	}
	if p.DefectEdits > p.Blocks {
		p.DefectEdits = p.Blocks
	}
	if p.GuardDecoys <= 0 {
		p.GuardDecoys = 12
	}
	if p.Twins <= 0 {
		p.Twins = 3
	}
	if p.DriftSteps > 0 {
		if p.DriftInterval <= 0 {
			p.DriftInterval = 400
		}
		if p.DriftKind == "" {
			p.DriftKind = "mixed"
		}
	}
}

// Scenario is one generated repair problem.
type Scenario struct {
	// Profile echoes the generation parameters.
	Profile Profile
	// Program is the defective program.
	Program *lang.Program
	// Correct is the reference program (defect neutralized), used only for
	// validation and test-oracle construction — the repair algorithms
	// never see it.
	Correct *lang.Program
	// Suite is the regression + bug-inducing test suite.
	Suite *testsuite.Suite
	// DefectStmts are the statement indices of the seeded defects; every
	// one must be neutralized for the program to pass the full suite.
	DefectStmts []int
	// TwinStmts holds, per defect, the indices of the correct twin
	// statements (wrong-code scenarios only; empty for delete scenarios).
	TwinStmts [][]int
	// Repairers is the canonical repairing mutation set: deleting every
	// defect (delete kind) or replacing every defect with its first twin
	// (wrong-code kind). Applying all of them yields a full repair.
	Repairers []mutation.Mutation
	// Drift is the deterministic suite-drift schedule for drifting
	// scenarios (nil for stationary ones). Every phase suite is
	// materialized and validated at generation time: the defective
	// program stays safe and failing, and the canonical repairers repair
	// every phase.
	Drift *testsuite.Drift
}

// modulus keeps accumulator arithmetic in range; prime, as in Adler-32.
const modulus = 65521

// bugThreshold guards the defect: inputs with n >= bugThreshold execute
// the defective statement.
const bugThreshold = 1000

// maxSubsetDefects bounds exhaustive proper-subset validation: up to this
// many defect sites, validate() proves no proper repairer subset repairs
// by checking all 2^m - 2 of them (≤ 62 suite evaluations). Registry
// profiles stay at or below 4 sites; the constant leaves headroom for
// custom profiles without letting validation go exponential.
const maxSubsetDefects = 6

// testMaxSteps bounds each test execution. Generated programs finish in
// well under this; mutants with accidental infinite loops fail fast.
const testMaxSteps = 20000

// Generate builds the scenario for a profile. Generation is deterministic
// in Profile.Seed. In the astronomically rare case that a seed yields a
// degenerate instance (e.g. the corruption cancels modulo the accumulator
// arithmetic), the next derived sub-seed is tried; the result is still a
// pure function of the profile.
func Generate(pr Profile) *Scenario {
	pr.fill()
	seed := pr.Seed
	for attempt := 0; attempt < 20; attempt++ {
		sc, err := generateOnce(pr, seed)
		if err == nil {
			return sc
		}
		seed = seed*0x9e3779b97f4a7c15 + 1
	}
	panic(fmt.Sprintf("scenario %s: no valid instance in 20 attempts", pr.Name))
}

func generateOnce(pr Profile, seed uint64) (*Scenario, error) {
	r := rng.New(seed)
	zero := make([]int64, pr.DefectEdits)
	correct, defectAt, twinAt := buildProgram(pr, r, zero)
	deltas := make([]int64, pr.DefectEdits)
	for i := range deltas {
		deltas[i] = defectDelta(r)
	}
	defective, defectAt2, _ := buildProgram(pr, rng.New(seed), deltas)
	if len(defectAt) != len(defectAt2) {
		return nil, fmt.Errorf("scenario: defect positions diverged between builds")
	}
	for i := range defectAt {
		if defectAt[i] != defectAt2[i] {
			return nil, fmt.Errorf("scenario: defect positions diverged between builds")
		}
	}

	suite := buildSuite(correct, pr, r)

	sc := &Scenario{
		Profile:     pr,
		Program:     defective,
		Correct:     correct,
		Suite:       suite,
		DefectStmts: defectAt,
		TwinStmts:   twinAt,
	}
	for i, d := range defectAt {
		if pr.Kind == DefectWrongCode {
			if len(twinAt[i]) == 0 {
				return nil, fmt.Errorf("scenario %s: too few blocks to plant twins for defect %d", pr.Name, i)
			}
			sc.Repairers = append(sc.Repairers, mutation.Mutation{Op: mutation.Replace, At: d, From: twinAt[i][0]})
		} else {
			sc.Repairers = append(sc.Repairers, mutation.Mutation{Op: mutation.Delete, At: d})
		}
	}
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if pr.DriftSteps > 0 {
		d, err := buildDrift(sc, pr, r)
		if err != nil {
			return nil, err
		}
		sc.Drift = d
	}
	return sc, nil
}

// defectDelta draws a nonzero corruption amount.
func defectDelta(r *rng.RNG) int64 {
	return int64(1 + r.Intn(97))
}

// buildProgram assembles the block-structured program. With all deltas
// zero the defect statements take their correct form (the reference
// program); nonzero deltas corrupt the accumulator for guarded inputs.
// Both calls must consume the RNG identically so the two programs differ
// only in the defect literals.
//
// Delete-kind defects are "set acc = acc + delta" (correct form: +0, an
// identity). Wrong-code defects are "set acc = acc + (base+delta)" whose
// correct form "set acc = acc + base" is planted as Twins identical
// statements in other blocks — the code-bank material a replacement
// repair needs.
func buildProgram(pr Profile, r *rng.RNG, deltas []int64) (*lang.Program, []int, [][]int) {
	var b progBuilder
	b.addf("input n")
	b.addf("input m")
	b.addf("set acc = n * 3 + m")

	// Choose defect blocks and (for wrong-code defects) twin blocks, all
	// distinct, deterministically in the RNG.
	nDefects := len(deltas)
	nTwins := 0
	if pr.Kind == DefectWrongCode {
		nTwins = pr.Twins
	}
	need := nDefects * (1 + nTwins)
	if need > pr.Blocks {
		need = pr.Blocks // fill() guarantees nDefects <= Blocks; twins shrink
	}
	picked := r.SampleWithoutReplacement(pr.Blocks, need)
	defectBlocks := map[int]int{} // block -> defect index
	twinBlocks := map[int]int{}   // block -> defect index whose twin lives here
	for i := 0; i < nDefects; i++ {
		defectBlocks[picked[i]] = i
	}
	for j, blk := range picked[nDefects:] {
		twinBlocks[blk] = j % nDefects
	}
	// Per-defect base constants (wrong-code kind contributes base even in
	// the correct program; delete kind uses base 0).
	bases := make([]int64, nDefects)
	for i := range bases {
		c := int64(1 + r.Intn(97))
		if pr.Kind == DefectWrongCode {
			bases[i] = c
		}
	}

	defectAt := make([]int, nDefects)
	twinAt := make([][]int, nDefects)
	tmpID := 0
	decoyID := 0
	for blk := 0; blk < pr.Blocks; blk++ {
		// Essential accumulator step: acc = (acc*A + B) % modulus.
		a := 2 + r.Intn(7)
		c := r.Intn(modulus)
		b.addf("set acc = (acc * %d + %d) %% %d", a, c, modulus)

		if di, ok := twinBlocks[blk]; ok {
			// A correct twin of defect di's statement: ordinary unguarded
			// code that happens to be exactly the repair material.
			twinAt[di] = append(twinAt[di], b.len())
			b.addf("set acc = acc + %d", bases[di])
		}

		// Redundant statements, in expectation pr.Redundancy per block.
		nRed := int(pr.Redundancy)
		if r.Float64() < pr.Redundancy-math.Floor(pr.Redundancy) {
			nRed++
		}
		for j := 0; j < nRed; j++ {
			switch r.Intn(4) {
			case 0: // twin recomputation: either copy can be deleted alone
				tmpID++
				c2 := r.Intn(100)
				b.addf("set t%d = acc + %d", tmpID, c2)
				b.addf("set t%d = acc + %d", tmpID, c2)
				b.addf("set acc = (acc + t%d) %% %d", tmpID, modulus)
			case 1: // dead temporary: never read
				tmpID++
				b.addf("set d%d = acc * %d + %d", tmpID, 1+r.Intn(9), r.Intn(100))
			case 2: // no-op padding
				b.addf("nop")
			case 3: // identity update
				b.addf("set acc = acc + 0")
			}
		}

		if di, ok := defectBlocks[blk]; ok {
			// Input-guarded defect region: only n >= bugThreshold executes
			// it. The decoys are inert (their targets are never read), but
			// they share the defect's coverage signature — executed only
			// by failing tests — so fault localization cannot single out
			// the real defect.
			b.addf("if n < %d goto ok%d", bugThreshold, blk)
			defectPos := r.Intn(pr.GuardDecoys + 1)
			for g := 0; g <= pr.GuardDecoys; g++ {
				if g == defectPos {
					defectAt[di] = b.len()
					b.addf("set acc = acc + %d", bases[di]+deltas[di])
				} else {
					decoyID++
					b.addf("set g%d = acc * %d + %d", decoyID, 1+r.Intn(9), r.Intn(100))
				}
			}
			b.addf("label ok%d", blk)
		}

		// Periodic checkpoint output makes the suite sensitive to every
		// preceding essential statement.
		if blk%8 == 7 {
			b.addf("print acc %% 1000")
		}
	}
	b.addf("print acc")
	b.addf("halt")
	return lang.MustParse(b.String()), defectAt, twinAt
}

// progBuilder accumulates source lines.
type progBuilder struct {
	lines []string
}

func (b *progBuilder) addf(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

func (b *progBuilder) len() int { return len(b.lines) }

func (b *progBuilder) String() string {
	out := ""
	for _, l := range b.lines {
		out += l + "\n"
	}
	return out
}

// buildSuite constructs the regression tests (inputs below the bug
// threshold) and one bug-inducing test (input above it), with expected
// outputs taken from the correct reference program.
func buildSuite(correct *lang.Program, pr Profile, r *rng.RNG) *testsuite.Suite {
	s := &testsuite.Suite{}
	for i := 0; i < pr.PositiveTests; i++ {
		n := int64(r.Intn(bugThreshold))
		m := int64(r.Intn(1000))
		s.Positive = append(s.Positive, makeTest(correct, fmt.Sprintf("pos%d", i), n, m))
	}
	n := int64(bugThreshold + r.Intn(1000))
	m := int64(r.Intn(1000))
	s.Negative = append(s.Negative, makeTest(correct, "bug", n, m))
	return s
}

// makeTest runs the reference program on (n, m) and records its output as
// the expected result.
func makeTest(correct *lang.Program, name string, n, m int64) testsuite.Test {
	res := lang.Run(correct, lang.Options{Input: []int64{n, m}})
	if res.Err != nil {
		panic(fmt.Sprintf("scenario: reference program failed: %v", res.Err))
	}
	return testsuite.Test{
		Name:     name,
		Input:    []int64{n, m},
		Want:     res.Output,
		MaxSteps: testMaxSteps,
	}
}

// cloneSuite copies a suite's test slices so a drift phase can extend
// them without aliasing the previous phase. Test values are copied
// shallowly; Input/Want slices are never mutated after construction.
func cloneSuite(s *testsuite.Suite) *testsuite.Suite {
	return &testsuite.Suite{
		Positive: append([]testsuite.Test(nil), s.Positive...),
		Negative: append([]testsuite.Test(nil), s.Negative...),
	}
}

// buildDrift materializes the drift schedule for a drifting scenario:
// DriftSteps cumulative phase suites, each derived from the previous by
// one change of the profile's DriftKind ("mixed" cycles tests-added →
// fault-moved → reweighted). Every phase is validated against the same
// invariants buildSuite establishes for phase 0 — the defective program
// stays safe and fails every negative test, the reference program and the
// canonical repairers repair — so a repair found in any phase is a real
// repair for that phase's suite. All randomness comes from the generation
// RNG, making the schedule a pure function of Profile.Seed.
func buildDrift(sc *Scenario, pr Profile, r *rng.RNG) (*testsuite.Drift, error) {
	kinds := []string{testsuite.DriftTestsAdded, testsuite.DriftFaultMoved, testsuite.DriftReweighted}
	switch pr.DriftKind {
	case "mixed":
		// keep the cycle
	case testsuite.DriftTestsAdded, testsuite.DriftFaultMoved, testsuite.DriftReweighted:
		kinds = []string{pr.DriftKind}
	default:
		return nil, fmt.Errorf("scenario %s: unknown drift kind %q", pr.Name, pr.DriftKind)
	}
	repaired := mutation.Apply(sc.Program, sc.Repairers)
	cur := sc.Suite
	steps := make([]testsuite.DriftStep, 0, pr.DriftSteps)
	for s := 0; s < pr.DriftSteps; s++ {
		kind := kinds[s%len(kinds)]
		next := cloneSuite(cur)
		switch kind {
		case testsuite.DriftTestsAdded:
			// A fresh regression test on a below-threshold input: the
			// defect region never executes there, so the defective program
			// passes it by construction.
			n := int64(r.Intn(bugThreshold))
			m := int64(r.Intn(1000))
			next.Positive = append(next.Positive, makeTest(sc.Correct, fmt.Sprintf("drift%d", s+1), n, m))
		case testsuite.DriftReweighted:
			// Duplicate one positive test under a new name: its weight in
			// the pass count doubles and the fingerprint changes, but no
			// program's behaviour does.
			t := next.Positive[r.Intn(len(next.Positive))]
			t.Name = fmt.Sprintf("%s-rw%d", t.Name, s+1)
			next.Positive = append(next.Positive, t)
		case testsuite.DriftFaultMoved:
			// The same defect manifests on a new bug-inducing input.
			// Rarely the corruption cancels modulo the accumulator
			// arithmetic on a particular input; redraw until the defective
			// program demonstrably fails it.
			moved := false
			for try := 0; try < 50 && !moved; try++ {
				n := int64(bugThreshold + r.Intn(1000))
				m := int64(r.Intn(1000))
				t := makeTest(sc.Correct, fmt.Sprintf("bug-mv%d", s+1), n, m)
				if !testsuite.RunTest(sc.Program, t) {
					next.Negative = []testsuite.Test{t}
					moved = true
				}
			}
			if !moved {
				return nil, fmt.Errorf("scenario %s: no failing moved-fault input found for drift step %d", pr.Name, s+1)
			}
		}
		runner := testsuite.NewRunner(next)
		f := runner.Eval(context.Background(), sc.Program)
		if !f.Safe() {
			return nil, fmt.Errorf("scenario %s: defective program fails positives in drift phase %d (%v)", pr.Name, s+1, f)
		}
		if f.NegPassed != 0 {
			return nil, fmt.Errorf("scenario %s: defective program passes the bug test in drift phase %d", pr.Name, s+1)
		}
		if !runner.Eval(context.Background(), sc.Correct).Repair() {
			return nil, fmt.Errorf("scenario %s: reference program does not repair drift phase %d", pr.Name, s+1)
		}
		if !runner.Eval(context.Background(), repaired).Repair() {
			return nil, fmt.Errorf("scenario %s: canonical repairers do not repair drift phase %d", pr.Name, s+1)
		}
		steps = append(steps, testsuite.DriftStep{
			AfterProbes: int64(s+1) * pr.DriftInterval,
			Suite:       next,
			Kind:        kind,
		})
		cur = next
	}
	return &testsuite.Drift{Steps: steps}, nil
}

// validate checks the scenario's construction invariants: the defective
// program passes all positive tests, fails the negative test, the correct
// reference is a full repair, every defect line is covered, deleting all
// defect statements repairs the program, and — for multi-edit scenarios —
// no strict subset of the defect deletions repairs it.
func (sc *Scenario) validate() error {
	runner := testsuite.NewRunner(sc.Suite)
	f := runner.Eval(context.Background(), sc.Program)
	if !f.Safe() {
		return fmt.Errorf("scenario %s: defective program fails positive tests (%v)", sc.Profile.Name, f)
	}
	if f.NegPassed != 0 {
		return fmt.Errorf("scenario %s: defective program passes the bug test", sc.Profile.Name)
	}
	if !runner.Eval(context.Background(), sc.Correct).Repair() {
		return fmt.Errorf("scenario %s: reference program is not a repair", sc.Profile.Name)
	}
	covered := testsuite.Coverage(sc.Program, sc.Suite)
	for _, d := range sc.DefectStmts {
		if !covered[d] {
			return fmt.Errorf("scenario %s: defect statement %d not covered", sc.Profile.Name, d)
		}
	}
	if !runner.Eval(context.Background(), mutation.Apply(sc.Program, sc.Repairers)).Repair() {
		return fmt.Errorf("scenario %s: canonical repairers do not repair", sc.Profile.Name)
	}
	if m := len(sc.Repairers); m > 1 {
		// No proper subset may repair: multi-hunk defects are genuinely
		// multi-hunk, every seeded site needs its edit. For m defects up
		// to maxSubsetDefects this is proved exhaustively over all
		// 2^m - 2 nonempty proper subsets (the empty subset is the
		// defective program, already shown to fail above) — at the
		// registry's cap of 4 defect sites that is 14 extra suite
		// evaluations per generation attempt, a bounded cost. Beyond the
		// cap, exhaustive enumeration would be exponential, so validation
		// falls back to the 2m most informative subsets: leave-one-out
		// (the maximal proper subsets — if any subset repaired, some
		// leave-one-out superset of it would too, because adding canonical
		// repairers never un-repairs in this construction) and each
		// singleton.
		subset := make([]mutation.Mutation, 0, m)
		check := func(mask uint) error {
			subset = subset[:0]
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					subset = append(subset, sc.Repairers[i])
				}
			}
			if runner.Eval(context.Background(), mutation.Apply(sc.Program, subset)).Repair() {
				return fmt.Errorf("scenario %s: proper repairer subset %0*b already repairs", sc.Profile.Name, m, mask)
			}
			return nil
		}
		if m <= maxSubsetDefects {
			for mask := uint(1); mask < 1<<m-1; mask++ {
				if err := check(mask); err != nil {
					return err
				}
			}
		} else {
			full := uint(1)<<m - 1
			for i := 0; i < m; i++ {
				if err := check(full &^ (1 << i)); err != nil {
					return err
				}
				if err := check(1 << i); err != nil {
					return err
				}
			}
		}
	}
	if sc.Profile.Kind == DefectWrongCode {
		// Deleting a wrong-code defect must NOT repair: the statement's
		// correct contribution is required.
		for _, d := range sc.DefectStmts {
			one := mutation.Apply(sc.Program, []mutation.Mutation{{Op: mutation.Delete, At: d}})
			if runner.Eval(context.Background(), one).Repair() {
				return fmt.Errorf("scenario %s: deleting wrong-code defect %d repairs", sc.Profile.Name, d)
			}
		}
	}
	return nil
}

// BuildPool precomputes the scenario's safe-mutation pool. The canonical
// repairing mutations (deleting each defect, or replacing it with its
// twin) are guaranteed to be in the pool: each is safe by construction,
// so the random sampler could always have drawn it, and its inclusion
// makes "the repair is inside the searched space" deterministic — the
// property the paper's benchmark selection provides for the real
// subjects.
func (sc *Scenario) BuildPool(workers int, seed *rng.RNG) *pool.Pool {
	return sc.BuildPoolContext(context.Background(), workers, seed, nil)
}

// BuildPoolTraced is BuildPool with the phase-1 batch event stream routed
// to tr (a nil tracer records nothing).
func (sc *Scenario) BuildPoolTraced(workers int, seed *rng.RNG, tr *obs.Tracer) *pool.Pool {
	return sc.BuildPoolContext(context.Background(), workers, seed, tr)
}

// BuildPoolContext is BuildPoolTraced with a cancellable context: a
// SIGINT-cancelled CLI run or a cancelled daemon job stops the build at
// the next batch boundary and gets the partial pool back (Stats.Degraded
// set) instead of blocking shutdown behind phase 1. The canonical
// repairers are appended even to a partial pool, so any non-empty result
// still contains a repair.
func (sc *Scenario) BuildPoolContext(ctx context.Context, workers int, seed *rng.RNG, tr *obs.Tracer) *pool.Pool {
	return sc.BuildPoolStored(ctx, workers, seed, tr, nil)
}

// BuildPoolStored is BuildPoolContext backed by a persistent store: the
// precompute safety cache warm-starts from previously persisted verdicts
// (candidates an earlier build already judged run no tests), this
// build's verdicts are persisted for future runs, and the finished pool
// — canonical repairers included — is saved as durable pool records. The
// pool contents and the phase-1 trace are byte-identical to a storeless
// build; only Stats.StoreHits/WarmEntries and the suite-execution count
// differ. A nil store degrades to BuildPoolContext exactly.
func (sc *Scenario) BuildPoolStored(ctx context.Context, workers int, seed *rng.RNG, tr *obs.Tracer, st *store.Store) *pool.Pool {
	pl := pool.Precompute(ctx, sc.Program, sc.Suite, pool.Config{
		Target:  sc.Profile.PoolTarget,
		Workers: workers,
		Trace:   tr,
		Store:   st,
	}, seed)
	for _, m := range sc.Repairers {
		pl.Add(m)
	}
	if st != nil {
		// Re-persist after the repairers joined so the stored pool is the
		// complete one (Persist dedups, so only the repairers append).
		pl.Persist(st, sc.Suite)
	}
	return pl
}

// FromSource builds a repair scenario from a user-supplied TinyLang
// program and test suite — the repair daemon's custom-program job path,
// where the problem arrives serialized over HTTP instead of from the
// generator. It enforces the same admission invariants Generate
// guarantees by construction: the program parses, the suite has at least
// one positive and one negative test, the program passes every positive
// test (it is "safe" — there is required functionality to preserve) and
// fails at least one negative test (there is a defect to repair). Unlike
// generated scenarios there is no canonical repairer and no guarantee a
// repair exists in the mutation space; Correct is nil and Repairers is
// empty.
//
// poolTarget sets Profile.PoolTarget (0 takes DefaultSourcePoolTarget);
// options sets Profile.Options, the cap on composition size (0 means "no
// cap beyond the pool size"). Negative values for either are rejected:
// the daemon promises admission-time validation with a 4xx, not a job
// that runs with silently adjusted parameters.
func FromSource(name, src string, suite *testsuite.Suite, poolTarget, options int) (*Scenario, error) {
	if name == "" {
		name = "custom"
	}
	if poolTarget < 0 {
		return nil, fmt.Errorf("scenario %s: poolTarget %d is negative (0 selects the default of %d)", name, poolTarget, DefaultSourcePoolTarget)
	}
	if options < 0 {
		return nil, fmt.Errorf("scenario %s: options %d is negative (0 means uncapped)", name, options)
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", name, err)
	}
	if suite == nil || len(suite.Positive) == 0 {
		return nil, fmt.Errorf("scenario %s: suite has no positive tests", name)
	}
	if len(suite.Negative) == 0 {
		return nil, fmt.Errorf("scenario %s: suite has no negative (bug-inducing) tests", name)
	}
	runner := testsuite.NewRunner(suite)
	f := runner.Eval(context.Background(), prog)
	if !f.Safe() {
		return nil, fmt.Errorf("scenario %s: program fails %d positive test(s) (%v) — nothing safe to preserve", name, f.PosTotal-f.PosPassed, f)
	}
	if f.NegPassed == f.NegTotal {
		return nil, fmt.Errorf("scenario %s: program passes every negative test — nothing to repair", name)
	}
	if poolTarget <= 0 {
		poolTarget = DefaultSourcePoolTarget
	}
	return &Scenario{
		Profile: Profile{Name: name, Options: options, PoolTarget: poolTarget},
		Program: prog,
		Suite:   suite,
	}, nil
}

// DefaultSourcePoolTarget is the safe-mutation pool size FromSource
// scenarios precompute when the job does not choose one. Custom programs
// are typically far smaller than generated benchmark subjects, so the
// default is modest; pool generation is additionally bounded by
// pool.Config's attempt cap, so a program with few safe mutations yields
// a small pool rather than an endless build.
const DefaultSourcePoolTarget = 128

// MeasureSafeDensity estimates S(x) — the probability that x random
// distinct pool mutations compose into a program that still passes all
// positive tests — by Monte-Carlo with the given trials per point
// (Fig. 4a's measurement). xs values exceeding the pool size yield NaN.
func MeasureSafeDensity(pl *pool.Pool, suite *testsuite.Suite, xs []int, trials int, r *rng.RNG) []float64 {
	runner := testsuite.NewRunner(&testsuite.Suite{Positive: suite.Positive})
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > pl.Size() {
			out[i] = math.NaN()
			continue
		}
		pass := 0
		for tr := 0; tr < trials; tr++ {
			mutant, _ := pl.ApplySample(x, r)
			if runner.Safe(mutant) {
				pass++
			}
		}
		out[i] = float64(pass) / float64(trials)
	}
	return out
}

// MeasureRepairDensity estimates the probability that a random composition
// of x pool mutations is a full repair (Fig. 4b's measurement).
func MeasureRepairDensity(pl *pool.Pool, suite *testsuite.Suite, xs []int, trials int, r *rng.RNG) []float64 {
	runner := testsuite.NewRunner(suite)
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > pl.Size() {
			out[i] = math.NaN()
			continue
		}
		hits := 0
		for tr := 0; tr < trials; tr++ {
			mutant, _ := pl.ApplySample(x, r)
			if runner.Eval(context.Background(), mutant).Repair() {
				hits++
			}
		}
		out[i] = float64(hits) / float64(trials)
	}
	return out
}
