package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/testsuite"
)

// FigureSpec configures the Fig. 4a/4b reproductions.
type FigureSpec struct {
	// Scenario names the registry scenario (the paper uses gzip).
	// Default "gzip-2009-09-26".
	Scenario string
	// Xs are the composition sizes to measure; nil means 1..80 in steps
	// matching the paper's plots.
	Xs []int
	// Trials per point (the paper uses 1000 for Fig. 4a). Default 300.
	Trials int
	// Workers for pool precomputation.
	Workers int
	// Seed drives measurement randomness.
	Seed uint64
}

func (f *FigureSpec) fill() {
	if f.Scenario == "" {
		f.Scenario = "gzip-2009-09-26"
	}
	if len(f.Xs) == 0 {
		for x := 1; x <= 80; x++ {
			if x <= 16 || x%4 == 0 {
				f.Xs = append(f.Xs, x)
			}
		}
	}
	if f.Trials <= 0 {
		f.Trials = 300
	}
	if f.Workers <= 0 {
		f.Workers = 8
	}
	if f.Seed == 0 {
		f.Seed = 0xF16
	}
}

// FigureData is the measured content of Fig. 4a and 4b for one scenario.
type FigureData struct {
	Scenario string
	Xs       []int
	// SafeDensity is Fig. 4a's main curve: fraction of programs passing
	// the test suite after composing x pool (pre-vetted safe) mutations.
	SafeDensity []float64
	// UnvettedDensity is Fig. 4a's contrast curve: the same measurement
	// with x random, unvetted mutations.
	UnvettedDensity []float64
	// RepairDensity is Fig. 4b: fraction of compositions that fully
	// repair the defect.
	RepairDensity []float64
	// OptimumX is the x with the highest measured repair density.
	OptimumX int
	// PoolSize records the pool used.
	PoolSize int
}

// RunFigures measures Fig. 4a and Fig. 4b for the configured scenario.
func RunFigures(spec FigureSpec) *FigureData {
	spec.fill()
	prof := scenario.MustByName(spec.Scenario)
	sc := scenario.Generate(prof)
	seed := rng.New(spec.Seed)
	pl := sc.BuildPool(spec.Workers, seed.Split())

	data := &FigureData{Scenario: spec.Scenario, Xs: spec.Xs, PoolSize: pl.Size()}
	data.SafeDensity = scenario.MeasureSafeDensity(pl, sc.Suite, spec.Xs, spec.Trials, seed.Split())
	data.UnvettedDensity = measureUnvetted(sc, spec.Xs, spec.Trials, seed.Split())
	data.RepairDensity = scenario.MeasureRepairDensity(pl, sc.Suite, spec.Xs, spec.Trials, seed.Split())

	best := stats.ArgMax(data.RepairDensity)
	if best >= 0 {
		data.OptimumX = spec.Xs[best]
	}
	return data
}

// measureUnvetted estimates the pass fraction when composing x random,
// unvetted mutations (not drawn from the safe pool) — the paper's
// comparison showing that only about two such mutations can be applied
// before most programs lose functionality.
func measureUnvetted(sc *scenario.Scenario, xs []int, trials int, r *rng.RNG) []float64 {
	runner := testsuite.NewRunner(&testsuite.Suite{Positive: sc.Suite.Positive})
	covered := testsuite.CoveredIndices(sc.Program, sc.Suite)
	out := make([]float64, len(xs))
	for i, x := range xs {
		pass := 0
		for t := 0; t < trials; t++ {
			muts := make([]mutation.Mutation, x)
			for j := range muts {
				muts[j] = mutation.Random(sc.Program, covered, r)
			}
			if runner.Safe(mutation.Apply(sc.Program, muts)) {
				pass++
			}
		}
		out[i] = float64(pass) / float64(trials)
	}
	return out
}

// HalfLife returns the smallest measured x at which the density drops to
// or below 0.5 (0 if it never does) — the summary statistic the paper
// quotes for both curves of Fig. 4a.
func HalfLife(xs []int, density []float64) int {
	for i, d := range density {
		if !math.IsNaN(d) && d <= 0.5 {
			return xs[i]
		}
	}
	return 0
}

// RenderFigure4a renders the Fig. 4a data as aligned text with a bar
// sparkline per row.
func RenderFigure4a(d *FigureData) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4a — fraction passing the test suite vs mutations applied (%s, pool %d)\n", d.Scenario, d.PoolSize)
	fmt.Fprintf(&b, "%6s  %-28s %8s  %-28s %8s\n", "x", "safe (pool) mutations", "", "unvetted mutations", "")
	for i, x := range d.Xs {
		fmt.Fprintf(&b, "%6d  %-28s %7.3f  %-28s %7.3f\n",
			x, bar(d.SafeDensity[i], 28), d.SafeDensity[i], bar(d.UnvettedDensity[i], 28), d.UnvettedDensity[i])
	}
	fmt.Fprintf(&b, "50%% crossing: safe at x=%d, unvetted at x=%d\n",
		HalfLife(d.Xs, d.SafeDensity), HalfLife(d.Xs, d.UnvettedDensity))
	return b.String()
}

// RenderFigure4b renders the Fig. 4b data.
func RenderFigure4b(d *FigureData) string {
	maxD := 0.0
	for _, v := range d.RepairDensity {
		if !math.IsNaN(v) && v > maxD {
			maxD = v
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4b — repair density vs mutations applied (%s)\n", d.Scenario)
	for i, x := range d.Xs {
		norm := 0.0
		if maxD > 0 {
			norm = d.RepairDensity[i] / maxD
		}
		fmt.Fprintf(&b, "%6d  %-28s %8.4f\n", x, bar(norm, 28), d.RepairDensity[i])
	}
	fmt.Fprintf(&b, "optimum at x=%d, density %.4f (paper reports program-specific optima, 11..271)\n", d.OptimumX, maxD)
	return b.String()
}

// bar renders a proportional ASCII bar.
func bar(v float64, width int) string {
	if math.IsNaN(v) || v < 0 {
		return ""
	}
	if v > 1 {
		v = 1
	}
	n := int(v*float64(width) + 0.5)
	return strings.Repeat("#", n)
}
