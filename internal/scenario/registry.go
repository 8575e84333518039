package scenario

import "fmt"

// Registry lists the repair-scenario profiles the evaluation uses, one per
// benchmark subject in the paper's Tables II–IV. The Options column is
// the paper's scenario "size": the number of bandit arms (maximum
// composition count) the online phase chooses among.
//
// The remaining knobs shape the program so its measured safe-density curve
// resembles the subject's role in the paper: larger subjects get longer
// programs; the Java subjects share one size (100) but differ in
// redundancy and program structure, which varies their value
// distributions, mirroring "each of the five Java scenarios have the same
// number of options, but vary in the distribution of values over them".
var Registry = []Profile{
	// C dataset: four ManyBugs-style scenarios and units. Defect flavours
	// vary as across real benchmarks: units and gzip-2009-09-26 carry
	// wrong-code defects (repairable only by replacing the bad statement
	// with correct twin code from elsewhere in the program);
	// gzip-2009-08-16 carries a two-edit defect — the kind the paper
	// argues single-edit tools cannot reach.
	{Name: "units", Blocks: 60, Redundancy: 2.0, Options: 1000, PositiveTests: 8, Kind: DefectWrongCode, Twins: 3, Seed: 0xC0001},
	{Name: "gzip-2009-08-16", Blocks: 120, Redundancy: 2.2, Options: 5000, PositiveTests: 10, DefectEdits: 2, Seed: 0xC0002},
	{Name: "gzip-2009-09-26", Blocks: 100, Redundancy: 2.0, Options: 2000, PositiveTests: 10, Kind: DefectWrongCode, Twins: 2, Seed: 0xC0003},
	{Name: "libtiff-2005-12-14", Blocks: 48, Redundancy: 1.8, Options: 100, PositiveTests: 6, Seed: 0xC0004},
	{Name: "lighttpd-1806-1807", Blocks: 36, Redundancy: 1.6, Options: 50, PositiveTests: 6, Seed: 0xC0005},

	// Java dataset: five Defects4J-style scenarios, all size 100. The two
	// Closure subjects carry multi-edit defects (two and three coordinated
	// edits); Chart26 and Math80 carry wrong-code defects.
	{Name: "Chart26", Blocks: 56, Redundancy: 2.4, Options: 100, PositiveTests: 8, Kind: DefectWrongCode, Twins: 4, Seed: 0x7A001},
	{Name: "Closure13", Blocks: 72, Redundancy: 1.4, Options: 100, PositiveTests: 8, DefectEdits: 2, Seed: 0x7A002},
	{Name: "Closure22", Blocks: 64, Redundancy: 1.7, Options: 100, PositiveTests: 8, DefectEdits: 3, Seed: 0x7A003},
	{Name: "Math8", Blocks: 44, Redundancy: 2.8, Options: 100, PositiveTests: 8, Seed: 0x7A004},
	{Name: "Math80", Blocks: 52, Redundancy: 2.1, Options: 100, PositiveTests: 8, Kind: DefectWrongCode, Twins: 3, Seed: 0x7A005},

	// Multi-hunk family: the repair needs coordinated edits at 2–4 defect
	// sites; validate() proves no proper subset of the canonical
	// repairers passes the suite. The wrong-code variants are the hardest
	// shape — every site needs the exact twin replacement, deletion never
	// repairs. Stresses Slate's slate-size choice (it must keep several
	// composition counts live long enough to cover all sites).
	{Name: "mh-pair", Family: FamilyMultiHunk, Blocks: 48, Redundancy: 1.8, Options: 100, PositiveTests: 8, DefectEdits: 2, Kind: DefectWrongCode, Twins: 2, Seed: 0x3B001},
	{Name: "mh-triple", Family: FamilyMultiHunk, Blocks: 72, Redundancy: 2.0, Options: 200, PositiveTests: 8, DefectEdits: 3, Seed: 0x3B002},
	{Name: "mh-quad", Family: FamilyMultiHunk, Blocks: 96, Redundancy: 2.0, Options: 500, PositiveTests: 10, DefectEdits: 4, Seed: 0x3B003},

	// Drifting family: the suite changes mid-run on a deterministic
	// probe-count schedule (Scenario.Drift). Tests MWU's adversarial
	// regret guarantee online — rewards observed before a drift step were
	// earned against a suite that no longer exists. The three-site
	// defects behind single-digit composition caps keep the repair
	// density near zero, so the search actually lives through the
	// schedule instead of repairing before the first step fires.
	{Name: "drift-grow", Family: FamilyDrifting, Blocks: 40, Redundancy: 1.8, Options: 8, PositiveTests: 6, DefectEdits: 3, DriftSteps: 3, DriftInterval: 300, DriftKind: "tests-added", Seed: 0x3D001},
	{Name: "drift-movingfault", Family: FamilyDrifting, Blocks: 48, Redundancy: 1.8, Options: 8, PositiveTests: 6, DefectEdits: 3, DriftSteps: 3, DriftInterval: 300, DriftKind: "fault-moved", Seed: 0x3D002},
	{Name: "drift-mixed", Family: FamilyDrifting, Blocks: 56, Redundancy: 2.0, Options: 10, PositiveTests: 8, DefectEdits: 3, DriftSteps: 4, DriftInterval: 250, DriftKind: "mixed", Seed: 0x3D003},

	// Adversarial/congestion family: per-probe cost scales with realized
	// arm load (1 + λ·(load−1) via internal/congestion's linear latency
	// model), so herding every worker onto the leader arm is expensive —
	// the regime the constant-step congestion learner is built for.
	{Name: "adv-mild", Family: FamilyAdversarial, Blocks: 40, Redundancy: 1.8, Options: 100, PositiveTests: 6, CongestionLambda: 0.25, Seed: 0x3E001},
	{Name: "adv-rush", Family: FamilyAdversarial, Blocks: 56, Redundancy: 2.0, Options: 200, PositiveTests: 8, CongestionLambda: 1.0, Kind: DefectWrongCode, Twins: 2, Seed: 0x3E002},
}

// CNames and JavaNames partition the paper's registry rows as in its
// tables.
var (
	CNames    = []string{"units", "gzip-2009-08-16", "gzip-2009-09-26", "libtiff-2005-12-14", "lighttpd-1806-1807"}
	JavaNames = []string{"Chart26", "Closure13", "Closure22", "Math8", "Math80"}
)

// ByName returns the registry profile with the given name.
func ByName(name string) (Profile, error) {
	for _, p := range Registry {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("scenario: unknown scenario %q", name)
}

// MustByName is ByName for known-good names; it panics on error.
func MustByName(name string) Profile {
	p, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}
