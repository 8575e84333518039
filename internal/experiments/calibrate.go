package experiments

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"

	"repro/internal/costmodel"
)

// Calibration is the empirical grounding of the asymptotic model: for each
// algorithm, the constant that scales Table I's convergence expression to
// the measured update cycles, with its residual spread. This is the step
// Sec. IV-E describes — the asymptotics alone "abstract away detail that
// is often relevant in practice", so the harness fits the constants from
// the measured cells and feeds them back into the decision model.
type Calibration struct {
	// Constant[alg] scales the Table I convergence prediction to measured
	// update cycles: measured ≈ Constant · predicted(k).
	Constant map[costmodel.Algorithm]float64
	// Spread[alg] is the geometric standard deviation of the per-cell
	// ratios (1 = perfect fit).
	Spread map[costmodel.Algorithm]float64
	// Cells[alg] counts the converged cells used.
	Cells map[costmodel.Algorithm]int
}

var algByName = map[string]costmodel.Algorithm{
	"standard":    costmodel.Standard,
	"distributed": costmodel.Distributed,
	"slate":       costmodel.Slate,
}

// CalibrateCostModel fits per-algorithm convergence constants from
// measured cells. Only cells where at least one replication converged
// contribute (a "≥limit" cell is a lower bound, not a measurement). The
// fit is in log space: the constant is the geometric mean of
// measured/predicted.
func CalibrateCostModel(cells []Cell) *Calibration {
	cal := &Calibration{
		Constant: map[costmodel.Algorithm]float64{},
		Spread:   map[costmodel.Algorithm]float64{},
		Cells:    map[costmodel.Algorithm]int{},
	}
	logs := map[costmodel.Algorithm][]float64{}
	for i := range cells {
		c := &cells[i]
		if c.Intractable || c.ConvergedRuns == 0 || c.Iterations.Mean() <= 0 {
			continue
		}
		alg, ok := algByName[c.Algorithm]
		if !ok {
			continue
		}
		pred := costmodel.Predict(alg, costmodel.Params{K: c.Size, N: c.Agents})
		if pred.Convergence <= 0 {
			continue
		}
		logs[alg] = append(logs[alg], math.Log(c.Iterations.Mean()/pred.Convergence))
	}
	for alg, ls := range logs {
		mean := 0.0
		for _, l := range ls {
			mean += l
		}
		mean /= float64(len(ls))
		varSum := 0.0
		for _, l := range ls {
			varSum += (l - mean) * (l - mean)
		}
		sd := 0.0
		if len(ls) > 1 {
			sd = math.Sqrt(varSum / float64(len(ls)-1))
		}
		cal.Constant[alg] = math.Exp(mean)
		cal.Spread[alg] = math.Exp(sd)
		cal.Cells[alg] = len(ls)
	}
	return cal
}

// RenderCalibration renders the fitted constants.
func RenderCalibration(cal *Calibration) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Sec. IV-E — empirical calibration of the asymptotic convergence forms")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Algorithm\tasymptotic form\tfitted constant\tgeo-spread\tcells")
	forms := map[costmodel.Algorithm]string{
		costmodel.Standard:    "ln k / ε²",
		costmodel.Distributed: "ln k / δ",
		costmodel.Slate:       "(k/n)·ln k / ε²",
	}
	for _, alg := range costmodel.Algorithms {
		if n, ok := cal.Cells[alg]; ok {
			fmt.Fprintf(w, "%s\t%s\t%.4f\t%.2f\t%d\n", alg, forms[alg], cal.Constant[alg], cal.Spread[alg], n)
		} else {
			fmt.Fprintf(w, "%s\t%s\t—\t—\t0\n", alg, forms[alg])
		}
	}
	w.Flush()
	fmt.Fprintln(&b, "measured update cycles ≈ constant × form; geo-spread 1.0 = exact power-law fit")
	return b.String()
}
