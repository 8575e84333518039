package experiments

import (
	"context"

	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/bandit"
	"repro/internal/dataset"
	"repro/internal/mwu"
	"repro/internal/rng"
	"repro/internal/stats"
)

// This file implements the parameter-interaction study the paper's
// Sec. VI calls for: "each algorithm has multiple interacting parameters
// (e.g., learning rate, iteration limit, and the chance of choosing an
// option randomly instead of obeying the weight distribution)". Sweep
// runs one algorithm across a grid of one parameter's values and reports
// the convergence/accuracy trade-off.

// SweepParam names a sweepable parameter.
type SweepParam string

const (
	// SweepEta sweeps Standard's learning rate η.
	SweepEta SweepParam = "eta"
	// SweepGamma sweeps Slate's exploration rate γ (which also sets the
	// slate size n = ⌈γ·k⌉).
	SweepGamma SweepParam = "gamma"
	// SweepMu sweeps Distributed's random-option probability μ.
	SweepMu SweepParam = "mu"
	// SweepBeta sweeps Distributed's adoption probability β (which also
	// moves δ and therefore the derived population size).
	SweepBeta SweepParam = "beta"
)

// SweepPoint is the aggregate outcome at one parameter value.
type SweepPoint struct {
	Value      float64
	Runs       int
	Converged  int
	Iterations stats.Summary
	Accuracy   stats.Summary
	Agents     int
	// Intractable marks β values whose derived population exceeds the
	// tractability bound.
	Intractable bool
}

// SweepSpec configures a sweep.
type SweepSpec struct {
	// Param selects what to sweep.
	Param SweepParam
	// Values is the grid.
	Values []float64
	// Dataset names the instance; default "random256".
	Dataset string
	// Seeds per point; default 5.
	Seeds int
	// MaxIter per run; default 10000.
	MaxIter int
	// BaseSeed offsets replication seeds.
	BaseSeed uint64
}

func (s *SweepSpec) fill() {
	if s.Dataset == "" {
		s.Dataset = "random256"
	}
	if s.Seeds <= 0 {
		s.Seeds = 5
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 10000
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 0x51EEB
	}
	if len(s.Values) == 0 {
		switch s.Param {
		case SweepEta, SweepGamma, SweepMu:
			s.Values = []float64{0.01, 0.025, 0.05, 0.1, 0.2}
		case SweepBeta:
			s.Values = []float64{0.6, 0.71, 0.8, 0.9}
		}
	}
}

// newSweepLearner builds the learner for one (param, value) setting.
// η, γ and β are each realization's Rate knob in the unified Config; μ is
// Distributed-specific and keeps its dedicated constructor.
func newSweepLearner(param SweepParam, value float64, k int, r *rng.RNG) (mwu.Learner, error) {
	switch param {
	case SweepEta:
		return mwu.NewLearner(mwu.Config{Algorithm: "standard", K: k, Agents: 16, Rate: value}, r)
	case SweepGamma:
		return mwu.NewLearner(mwu.Config{Algorithm: "slate", K: k, Rate: value}, r)
	case SweepMu:
		return mwu.NewDistributed(mwu.DistributedConfig{K: k, Mu: value}, r)
	case SweepBeta:
		return mwu.NewLearner(mwu.Config{Algorithm: "distributed", K: k, Rate: value}, r)
	default:
		return nil, fmt.Errorf("experiments: unknown sweep parameter %q", param)
	}
}

// RunSweep executes the sweep and returns one point per value.
func RunSweep(spec SweepSpec) ([]SweepPoint, error) {
	spec.fill()
	ds, err := dataset.Get(spec.Dataset)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, 0, len(spec.Values))
	for vi, v := range spec.Values {
		pt := SweepPoint{Value: v}
		for s := 0; s < spec.Seeds; s++ {
			seed := rng.New(spec.BaseSeed ^ uint64(vi*1009+s+1)*0x9e3779b97f4a7c15)
			learner, err := newSweepLearner(spec.Param, v, ds.Size, seed.Split())
			if err != nil {
				var intract *mwu.ErrIntractable
				if errors.As(err, &intract) {
					pt.Intractable = true
					break
				}
				return nil, err
			}
			problem := bandit.NewProblem(ds.Dist)
			res := mwu.Run(context.Background(), learner, problem, seed.Split(), mwu.RunConfig{MaxIter: spec.MaxIter, Workers: 1})
			pt.Runs++
			if res.Converged {
				pt.Converged++
			}
			pt.Iterations.Add(float64(res.Iterations))
			pt.Accuracy.Add(problem.Accuracy(res.Choice))
			pt.Agents = learner.Agents()
		}
		points = append(points, pt)
	}
	return points, nil
}

// RenderSweep renders sweep points as a table.
func RenderSweep(spec SweepSpec, points []SweepPoint) string {
	spec.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "Parameter sweep — %s on %s (%d seeds/point, limit %d)\n",
		spec.Param, spec.Dataset, spec.Seeds, spec.MaxIter)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "value\tagents\tconverged\tupdate cycles\taccuracy %")
	for _, pt := range points {
		if pt.Intractable {
			fmt.Fprintf(w, "%g\t—\t—\t—\t—\n", pt.Value)
			continue
		}
		fmt.Fprintf(w, "%g\t%d\t%d/%d\t%.0f (%.0f)\t%.1f (%.1f)\n",
			pt.Value, pt.Agents, pt.Converged, pt.Runs,
			pt.Iterations.Mean(), pt.Iterations.StdDev(),
			pt.Accuracy.Mean(), pt.Accuracy.StdDev())
	}
	w.Flush()
	return b.String()
}
