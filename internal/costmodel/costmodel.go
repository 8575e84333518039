// Package costmodel encodes the paper's formal comparison of the three
// MWU realizations (Table I) and the weighted decision model built on top
// of it (Sec. IV-E), which combines asymptotic terms with
// workload-specific weights to recommend an algorithm.
//
// All four Table I rows are expressed uniformly in the same variables,
// matching the paper's stated goal of easing comparison:
//
//	k — number of options;  n — number of agents/threads;
//	ε — error tolerance (Standard/Slate learning rate driver);
//	δ — ln(β/(1−β)), the Distributed attention parameter.
//
//	                Standard        Distributed            Slate
//	Communication   O(n)            O(ln n / ln ln n)*     O(n)
//	Memory          O(k)            O(1)                   O(k)
//	Convergence     O(ln k / ε²)    O(ln k / δ)*           O((k/n)·ln k / ε²)
//	Min agents      O(n)            O(k^(1/δ))             O(n)
//
// Starred bounds hold with probability at least 1 − 1/n.
package costmodel

import (
	"fmt"
	"math"

	"repro/internal/congestion"
)

// Algorithm names one MWU realization.
type Algorithm int

const (
	Standard Algorithm = iota
	Distributed
	Slate
)

// Algorithms lists all three in presentation order.
var Algorithms = []Algorithm{Standard, Distributed, Slate}

func (a Algorithm) String() string {
	switch a {
	case Standard:
		return "Standard"
	case Distributed:
		return "Distributed"
	case Slate:
		return "Slate"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Params are the problem and parameter setting the model evaluates.
type Params struct {
	// K is the number of options.
	K int
	// N is the number of agents/threads for Standard and Slate.
	N int
	// Epsilon is the error tolerance ε (the evaluation uses 0.05).
	Epsilon float64
	// Beta is the Distributed attention parameter β, from which
	// δ = ln(β/(1−β)) is derived (the evaluation uses 0.71).
	Beta float64
}

func (p *Params) fill() {
	if p.N <= 0 {
		p.N = 16
	}
	if p.Epsilon <= 0 {
		p.Epsilon = 0.05
	}
	if p.Beta <= 0 {
		p.Beta = 0.71
	}
}

// Delta returns δ = ln(β/(1−β)) for the parameterized β.
func (p Params) Delta() float64 { return math.Log(p.Beta / (1 - p.Beta)) }

// Costs are the four Table I quantities, evaluated (up to constants) for a
// concrete (k, n, ε, δ).
type Costs struct {
	// Communication is the expected congestion of the heaviest-hit node
	// per iteration.
	Communication float64
	// Memory is the per-node memory overhead in words.
	Memory float64
	// Convergence is the expected number of update cycles to converge.
	Convergence float64
	// MinAgents is the minimum number of agents required.
	MinAgents float64
}

// Predict evaluates Table I's closed forms for one algorithm.
func Predict(a Algorithm, p Params) Costs {
	p.fill()
	k := float64(p.K)
	n := float64(p.N)
	lnk := math.Log(math.Max(k, 2))
	eps2 := p.Epsilon * p.Epsilon
	switch a {
	case Standard:
		return Costs{
			Communication: n,
			Memory:        k,
			Convergence:   lnk / eps2,
			MinAgents:     n,
		}
	case Distributed:
		delta := p.Delta()
		if delta <= 0 {
			delta = math.SmallestNonzeroFloat64
		}
		agents := math.Pow(k, 1/delta)
		return Costs{
			Communication: congestion.BallsIntoBinsBound(int(math.Max(agents, 3))),
			Memory:        1,
			Convergence:   lnk / delta,
			MinAgents:     agents,
		}
	case Slate:
		return Costs{
			Communication: n,
			Memory:        k,
			Convergence:   (k / n) * lnk / eps2,
			MinAgents:     n,
		}
	default:
		panic("costmodel: unknown algorithm")
	}
}

// Weights encode the relative importance of each cost feature for a given
// deployment (Sec. IV-E-1's weighted asymptotic model). Zero weights drop
// a feature from consideration.
type Weights struct {
	// Communication weights congestion (α in the paper's example model).
	Communication float64
	// Convergence weights update cycles (β in the paper's example model).
	Convergence float64
	// Memory weights per-node memory overhead.
	Memory float64
	// Agents weights the number of CPUs occupied per iteration — the term
	// that flips the recommendation in CPU-constrained settings.
	Agents float64
}

// Score combines the predicted costs under the given weights:
// cost = w_comm·communication + w_conv·convergence + w_mem·memory
// + w_agents·minAgents.
func Score(c Costs, w Weights) float64 {
	return w.Communication*c.Communication +
		w.Convergence*c.Convergence +
		w.Memory*c.Memory +
		w.Agents*c.MinAgents
}

// Recommendation is the model's output for one parameter setting.
type Recommendation struct {
	// Best is the algorithm with the lowest weighted score.
	Best Algorithm
	// Scores holds the weighted score per algorithm.
	Scores map[Algorithm]float64
	// Rationale is a one-line explanation of the decisive trade-off.
	Rationale string
}

// Recommend evaluates all three algorithms under the weights and returns
// the cheapest, with per-algorithm scores for inspection.
func Recommend(p Params, w Weights) Recommendation {
	scores := make(map[Algorithm]float64, 3)
	best := Standard
	for _, a := range Algorithms {
		s := Score(Predict(a, p), w)
		scores[a] = s
		if s < scores[best] {
			best = a
		}
	}
	return Recommendation{Best: best, Scores: scores, Rationale: rationale(best, p, w)}
}

func rationale(best Algorithm, p Params, w Weights) string {
	switch best {
	case Distributed:
		return "communication dominates: distributed memory's O(ln n/ln ln n) congestion wins despite its larger agent pool"
	case Slate:
		return "slate evaluation amortizes option probes while keeping the global model"
	default:
		return "probes are expensive relative to messages: global memory with full synchronization converges in the fewest update cycles per CPU"
	}
}

// WorkloadProfile describes a concrete deployment in measurable terms, the
// inputs of Sec. IV-F-2's concrete recommendations.
type WorkloadProfile struct {
	// ProbeCost is the cost of evaluating one option (e.g. seconds to
	// patch, compile and run a test suite).
	ProbeCost float64
	// MessageCost is the cost of one synchronization message.
	MessageCost float64
	// CPUBudget is the number of simultaneously available CPUs; zero or
	// negative means unconstrained.
	CPUBudget int
	// AccuracyNeed is the required accuracy in [0,1]; at or below 0.9 any
	// of the three algorithms qualifies (the paper's ≥90% finding).
	AccuracyNeed float64
}

// RecommendForWorkload turns a concrete workload description into weights
// and applies the decision model, reproducing the paper's analysis for
// APR: probe cost ≫ message cost and a bounded CPU pool favour Standard —
// the global-memory, high-communication algorithm — which is the paper's
// headline "surprising result".
func RecommendForWorkload(wl WorkloadProfile, p Params) Recommendation {
	p.fill()
	if wl.ProbeCost <= 0 {
		wl.ProbeCost = 1
	}
	if wl.MessageCost < 0 {
		wl.MessageCost = 0
	}
	w := Weights{
		// Each iteration pays congestion × message cost...
		Communication: wl.MessageCost,
		// ...and one probe round per agent; convergence cycles each cost a
		// probe round, so cycles are weighted by probe cost.
		Convergence: wl.ProbeCost,
	}
	if wl.CPUBudget > 0 {
		// CPU-constrained: paying for agents matters. Weight agents by the
		// probe cost normalized by the budget so demand beyond the budget
		// dominates.
		w.Agents = wl.ProbeCost / float64(wl.CPUBudget)
	}
	rec := Recommend(p, w)
	if wl.CPUBudget > 0 {
		// Hard feasibility: an algorithm whose minimum agent pool exceeds
		// the budget cannot run at all.
		feasible := rec
		bestScore := math.Inf(1)
		found := false
		for _, a := range Algorithms {
			c := Predict(a, p)
			if c.MinAgents > float64(wl.CPUBudget) {
				continue
			}
			if s := rec.Scores[a]; s < bestScore {
				bestScore = s
				feasible.Best = a
				found = true
			}
		}
		if found {
			feasible.Rationale = rationale(feasible.Best, p, Weights{})
			return feasible
		}
	}
	return rec
}
