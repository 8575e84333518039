// Package dist defines the option-value distributions used in the paper's
// evaluation (Sec. IV-A).
//
// A Distribution assigns each of k options a value in [0, 1]; the MWU
// algorithms observe those values only through Bernoulli feedback (a probe
// of option i succeeds with probability value(i)). Three families are
// provided:
//
//   - Random: each value independently uniform on [0,1) — a proxy for
//     search spaces where neighboring options are uncorrelated.
//   - Unimodal: values follow a·x·e^(−b·x) + c over a normalized domain —
//     the shape the paper observes for repair density as a function of the
//     number of combined safe mutations (Fig. 4b).
//   - Empirical: values copied from measurements (used for the C- and
//     Java-derived datasets, where values come from simulated repair
//     scenarios).
package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/stats"
)

// Distribution is an immutable assignment of values in [0,1] to options.
type Distribution struct {
	name   string
	values []float64
	best   int // index of the maximum value
}

// New constructs a distribution from explicit values. Values are clamped
// to [0, 1]; it panics on empty input.
func New(name string, values []float64) *Distribution {
	if len(values) == 0 {
		panic("dist: empty distribution")
	}
	vs := make([]float64, len(values))
	for i, v := range values {
		vs[i] = clamp01(v)
	}
	return &Distribution{name: name, values: vs, best: stats.ArgMax(vs)}
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	default:
		return v
	}
}

// Size returns the number of options k.
func (d *Distribution) Size() int { return len(d.values) }

// Value returns option i's true value in [0,1].
func (d *Distribution) Value(i int) float64 { return d.values[i] }

// Values returns a copy of all option values.
func (d *Distribution) Values() []float64 {
	return append([]float64(nil), d.values...)
}

// Best returns the index of the highest-value option — the "best in
// hindsight" used to score accuracy (Table III).
func (d *Distribution) Best() int { return d.best }

// BestValue returns the value of the best option.
func (d *Distribution) BestValue() float64 { return d.values[d.best] }

// Accuracy returns the paper's accuracy metric for a converged choice:
// 100 × (1 − |best − chosen| / best), the absolute percent error between
// the best possible option and the option selected (Table III).
func (d *Distribution) Accuracy(chosen int) float64 {
	best := d.BestValue()
	if best == 0 {
		// Degenerate: every option is worthless, any choice is "perfect".
		return 100
	}
	return 100 * (1 - math.Abs(best-d.values[chosen])/best)
}

func (d *Distribution) String() string {
	return fmt.Sprintf("%s(k=%d, best=%d@%.3f)", d.name, len(d.values), d.best, d.BestValue())
}

// Random builds a k-option distribution with independently uniform values,
// the paper's "random" synthetic family.
func Random(name string, k int, r *rng.RNG) *Distribution {
	if k <= 0 {
		panic("dist: Random requires k > 0")
	}
	vs := make([]float64, k)
	for i := range vs {
		vs[i] = r.Float64()
	}
	return New(name, vs)
}

// UnimodalParams are the coefficients of the paper's unimodal family
// a·x·e^(−b·x) + c (Sec. IV-A), with x the option index scaled so that the
// curve's character is size-independent.
type UnimodalParams struct {
	A, B, C float64
}

// RandomUnimodalParams draws a, b, c independently and uniformly from the
// unit interval, exactly as the paper constructs its unimodal dataset.
// b is bounded away from zero so the mode lands inside the domain.
func RandomUnimodalParams(r *rng.RNG) UnimodalParams {
	return UnimodalParams{
		A: r.Float64(),
		B: 0.05 + 0.95*r.Float64(),
		C: r.Float64(),
	}
}

// Unimodal builds a k-option distribution whose value curve is
// a·x·e^(−b·x) + c over the raw option index x = i+1 (the paper gives the
// form with no domain rescaling), normalized so the maximum value is at
// most 1. The peak sits at x = 1/b independent of k, so larger instances
// add a long tail of near-worthless options — which is exactly why the
// paper finds larger instances harder ("the larger the instance ... it is
// likelier that multiple options have similar values").
func Unimodal(name string, k int, p UnimodalParams) *Distribution {
	if k <= 0 {
		panic("dist: Unimodal requires k > 0")
	}
	if p.B <= 0 {
		panic("dist: Unimodal requires B > 0")
	}
	vs := make([]float64, k)
	maxV := 0.0
	for i := range vs {
		x := float64(i + 1)
		v := p.A*x*math.Exp(-p.B*x) + p.C
		vs[i] = v
		if v > maxV {
			maxV = v
		}
	}
	if maxV > 1 {
		for i := range vs {
			vs[i] /= maxV
		}
	}
	return New(name, vs)
}

// Bernoulli samples a {0,1} reward for option i: 1 with probability
// value(i). This is the only feedback the MWU algorithms receive.
func (d *Distribution) Bernoulli(i int, r *rng.RNG) float64 {
	if r.Bool(d.values[i]) {
		return 1
	}
	return 0
}
