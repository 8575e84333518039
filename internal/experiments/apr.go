package experiments

import (
	"context"

	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// APRSpec configures the Sec. IV-G comparison of MWRepair against the
// search-based baselines on the ten repair scenarios.
type APRSpec struct {
	// Scenarios to run; nil means the full registry.
	Scenarios []string
	// Algorithm is the MWU realization MWRepair uses; default "standard"
	// (the cost model's recommendation for APR workloads).
	Algorithm string
	// MaxIter bounds MWRepair's online update cycles. Default 2000.
	MaxIter int
	// MaxEvals bounds each baseline's fitness evaluations. Default 20000.
	MaxEvals int64
	// MaxX caps MWRepair's largest composition size. The paper's scenario
	// "size" is the full option count, but every measured safe-density
	// curve is zero beyond ~120 combined mutations (Fig. 4a), so arms past
	// a few hundred only pay exploration cost. Default min(options, 256).
	MaxX int
	// Workers is the parallel width for pool building and probes.
	Workers int
	// Seed drives all randomness.
	Seed uint64
}

func (s *APRSpec) fill() {
	if len(s.Scenarios) == 0 {
		s.Scenarios = append(append([]string(nil), scenario.CNames...), scenario.JavaNames...)
	}
	if s.Algorithm == "" {
		s.Algorithm = "standard"
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 2000
	}
	if s.MaxEvals <= 0 {
		s.MaxEvals = 20000
	}
	if s.Workers <= 0 {
		s.Workers = 8
	}
	if s.Seed == 0 {
		s.Seed = 0xA9A
	}
}

// APRRow is one scenario's outcome across all four repair algorithms.
type APRRow struct {
	Scenario string
	Language string // "C" or "Java"

	MWRepaired     bool
	MWIterations   int
	MWFitnessEvals int64
	MWCacheHits    int64
	MWLearnedArm   int
	MWAgents       int

	GenProg  baseline.Result
	RSRepair baseline.Result
	AE       baseline.Result
}

// APRSummary aggregates the Sec. IV-G headline numbers.
type APRSummary struct {
	Rows []APRRow

	// RepairedMW etc. count scenarios repaired per algorithm.
	RepairedMW, RepairedGenProg, RepairedRSRepair, RepairedAE int

	// EvalRatioVsGenProg is MWRepair's total fitness evaluations divided
	// by GenProg's (the paper reports ≈52%), over scenarios both repaired.
	EvalRatioVsGenProg float64
	// LatencyRatioVsGenProg is GenProg's serial latency divided by
	// MWRepair's parallel latency (update cycles), over scenarios both
	// repaired (the paper reports ≈40×).
	LatencyRatioVsGenProg float64
}

// RunAPR executes the comparison.
func RunAPR(spec APRSpec) (*APRSummary, error) {
	spec.fill()
	sum := &APRSummary{}
	var mwEvals, gpEvals, gpLatency, mwLatency float64
	for i, name := range spec.Scenarios {
		prof, err := scenario.ByName(name)
		if err != nil {
			return nil, err
		}
		lang := "C"
		for _, jn := range scenario.JavaNames {
			if name == jn {
				lang = "Java"
			}
		}
		sc := scenario.Generate(prof)
		seed := rng.New(spec.Seed + uint64(i)*7919)
		pl := sc.BuildPool(spec.Workers, seed.Split())

		row := APRRow{Scenario: name, Language: lang}

		maxX := prof.Options
		if spec.MaxX > 0 && spec.MaxX < maxX {
			maxX = spec.MaxX
		} else if spec.MaxX == 0 && maxX > 256 {
			maxX = 256
		}
		mwRes, err := core.RepairWithAlgorithm(context.Background(), spec.Algorithm, pl, sc.Suite, seed.Split(), core.Config{
			MaxIter: spec.MaxIter,
			Workers: spec.Workers,
			MaxX:    maxX,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		row.MWRepaired = mwRes.Repaired
		row.MWIterations = mwRes.Iterations
		row.MWFitnessEvals = mwRes.FitnessEvals
		row.MWCacheHits = mwRes.CacheHits
		row.MWLearnedArm = mwRes.LearnedArm
		row.MWAgents = mwRes.Agents

		cfg := baseline.Config{MaxEvals: spec.MaxEvals}
		row.GenProg = baseline.GenProg(baseline.NewProblem(sc.Program, sc.Suite), seed.Split(), cfg)
		row.RSRepair = baseline.RSRepair(baseline.NewProblem(sc.Program, sc.Suite), seed.Split(), cfg)
		row.AE = baseline.AE(baseline.NewProblem(sc.Program, sc.Suite), seed.Split(), cfg)

		if row.MWRepaired {
			sum.RepairedMW++
		}
		if row.GenProg.Repaired {
			sum.RepairedGenProg++
		}
		if row.RSRepair.Repaired {
			sum.RepairedRSRepair++
		}
		if row.AE.Repaired {
			sum.RepairedAE++
		}
		if row.MWRepaired && row.GenProg.Repaired {
			mwEvals += float64(row.MWFitnessEvals)
			gpEvals += float64(row.GenProg.FitnessEvals)
			mwLatency += float64(row.MWIterations)
			gpLatency += float64(row.GenProg.Latency)
		}
		sum.Rows = append(sum.Rows, row)
	}
	if gpEvals > 0 {
		sum.EvalRatioVsGenProg = mwEvals / gpEvals
	}
	if mwLatency > 0 {
		sum.LatencyRatioVsGenProg = gpLatency / mwLatency
	}
	return sum, nil
}

// RenderAPR renders the Sec. IV-G comparison.
func RenderAPR(s *APRSummary) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Sec. IV-G — MWRepair vs search-based APR baselines")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Scenario\tLang\tMWRepair\titers\tevals\thits\tx*\tGenProg\tevals\tRSRepair\tevals\tAE\tevals")
	mark := func(ok bool) string {
		if ok {
			return "✓"
		}
		return "✗"
	}
	for _, r := range s.Rows {
		fmt.Fprintf(w, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%s\t%d\t%s\t%d\n",
			r.Scenario, r.Language,
			mark(r.MWRepaired), r.MWIterations, r.MWFitnessEvals, r.MWCacheHits, r.MWLearnedArm,
			mark(r.GenProg.Repaired), r.GenProg.FitnessEvals,
			mark(r.RSRepair.Repaired), r.RSRepair.FitnessEvals,
			mark(r.AE.Repaired), r.AE.FitnessEvals)
	}
	w.Flush()
	n := len(s.Rows)
	fmt.Fprintf(&b, "\nRepaired: MWRepair %d/%d, GenProg %d/%d, RSRepair %d/%d, AE %d/%d\n",
		s.RepairedMW, n, s.RepairedGenProg, n, s.RepairedRSRepair, n, s.RepairedAE, n)
	fmt.Fprintf(&b, "Fitness evaluations, MWRepair vs GenProg (both repaired): %.0f%% (paper: ≈52%%)\n",
		100*s.EvalRatioVsGenProg)
	fmt.Fprintf(&b, "Latency advantage vs GenProg (serial evals / parallel cycles): %.0f× (paper: ≈40×)\n",
		s.LatencyRatioVsGenProg)
	return b.String()
}
