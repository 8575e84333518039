package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/lang"
	"repro/internal/testsuite"
)

// FuzzSubmitSpec decodes arbitrary bytes the way POST /v1/jobs does and
// runs admission on them. Admission must never panic, must keep every
// accepted spec within the documented limits, and must admit a custom
// program only if it passes all its positive tests and fails at least one
// negative test when rerun under a fresh runner.
func FuzzSubmitSpec(f *testing.F) {
	limitSpecs := []Spec{
		repairableSpec(),
		// A million workers: one goroutine each in the pool build.
		{Scenario: "units", Workers: 1_000_000},
		// Ten million agents on a repairable program.
		func() Spec { s := repairableSpec(); s.Agents, s.MaxIter = 10_000_000, 2; return s }(),
		// A positive test that loops for fifty million steps.
		{Program: "label a\ngoto a\n", Suite: &SuiteSpec{
			Positive: []TestSpec{{Input: []int64{}, Want: []int64{}, MaxSteps: 50_000_000}},
			Negative: []TestSpec{{Input: []int64{1}, Want: []int64{1}}},
		}},
		// A pool target far beyond what a ten-statement program holds.
		func() Spec { s := repairableSpec(); s.PoolTarget = 10_000; return s }(),
	}
	for _, s := range limitSpecs {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		if _, err := spec.validate(); err != nil {
			return
		}
		if spec.Workers > maxWorkers || spec.Agents > maxAgents || spec.PoolTarget > maxPoolTarget {
			t.Fatalf("admitted workers=%d agents=%d poolTarget=%d", spec.Workers, spec.Agents, spec.PoolTarget)
		}
		if spec.Program == "" {
			return
		}
		suite := spec.Suite.suite()
		total := 0
		for _, tc := range suite.All() {
			n := tc.MaxSteps
			if n <= 0 {
				n = lang.DefaultMaxSteps
			}
			if n > maxTestSteps {
				t.Fatalf("admitted test %q with maxSteps %d", tc.Name, n)
			}
			total += n
		}
		if total > maxSuiteSteps {
			t.Fatalf("admitted a suite step budget of %d", total)
		}
		prog, err := lang.Parse(spec.Program)
		if err != nil {
			t.Fatalf("admitted an unparsable program: %v", err)
		}
		fit := testsuite.NewRunner(suite).Eval(context.Background(), prog)
		if !fit.Safe() || fit.NegPassed == fit.NegTotal {
			t.Fatalf("admitted a program that is not a repair subject: %v", fit)
		}
	})
}
