package lang_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/lang"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestCompiledMatchesTreeWalkerOnProbes: the mutants the online phase
// actually runs — pool.ApplySample probes of every size on the corpus
// rows and a multi-hunk row — give the same result under the compiled
// engine, through one Compiler per row as testsuite.Runner keeps it, as
// under the tree-walking oracle, on every test of the row's suite.
func TestCompiledMatchesTreeWalkerOnProbes(t *testing.T) {
	rows := []string{"lighttpd-1806-1807", "libtiff-2005-12-14", "Chart26", "Math8", "Math80", "adv-mild", "mh-pair"}
	probes := 60
	if testing.Short() {
		rows, probes = rows[:2], 20
	}
	for _, name := range rows {
		sc := scenario.Generate(scenario.MustByName(name))
		pl := sc.BuildPool(2, rng.New(1))
		r := rng.New(2)
		var c lang.Compiler
		tests := sc.Suite.All()
		for i := 0; i < probes; i++ {
			mutant, _ := pl.ApplySample(1+r.Intn(min(pl.Size(), sc.Profile.Options)), r)
			code := c.Compile(mutant)
			for _, tc := range tests {
				for _, trace := range []bool{false, true} {
					opts := lang.Options{Input: tc.Input, MaxSteps: tc.MaxSteps, Trace: trace}
					got, want := code.Run(opts), lang.TreeRun(mutant, opts)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s probe %d test %s: compiled %+v, oracle %+v", name, i, tc.Name, got, want)
					}
				}
				oracle := lang.TreeRun(mutant, lang.Options{Input: tc.Input, MaxSteps: tc.MaxSteps})
				pass := oracle.Err == nil && slices.Equal(oracle.Output, tc.Want)
				if got := code.Passes(tc.Input, tc.Want, tc.MaxSteps); got != pass {
					t.Fatalf("%s probe %d test %s: Passes = %v, oracle verdict %v", name, i, tc.Name, got, pass)
				}
			}
		}
	}
}
