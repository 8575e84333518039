package costmodel

import (
	"math"
	"testing"
)

func params(k int) Params { return Params{K: k, N: 16, Epsilon: 0.05, Beta: 0.71} }

func TestAlgorithmString(t *testing.T) {
	if Standard.String() != "Standard" || Distributed.String() != "Distributed" || Slate.String() != "Slate" {
		t.Fatal("algorithm names wrong")
	}
	if Algorithm(9).String() != "Algorithm(9)" {
		t.Fatal("unknown algorithm string wrong")
	}
}

func TestDeltaPositiveForBetaAboveHalf(t *testing.T) {
	p := params(100)
	if p.Delta() <= 0 {
		t.Fatalf("delta = %v", p.Delta())
	}
}

func TestTableIShapes(t *testing.T) {
	p := params(1000)
	std := Predict(Standard, p)
	dst := Predict(Distributed, p)
	slt := Predict(Slate, p)

	// Communication: Standard and Slate are O(n); Distributed is far less.
	if std.Communication != 16 || slt.Communication != 16 {
		t.Fatalf("standard/slate communication: %v/%v", std.Communication, slt.Communication)
	}
	if dst.Communication >= std.Communication {
		t.Fatalf("distributed communication %v not below standard %v", dst.Communication, std.Communication)
	}

	// Memory: k vs O(1).
	if std.Memory != 1000 || slt.Memory != 1000 || dst.Memory != 1 {
		t.Fatalf("memory: %v/%v/%v", std.Memory, dst.Memory, slt.Memory)
	}

	// Convergence: Slate slower than Standard by k/n.
	if slt.Convergence <= std.Convergence {
		t.Fatal("slate should converge slower than standard")
	}
	wantRatio := 1000.0 / 16.0
	if got := slt.Convergence / std.Convergence; math.Abs(got-wantRatio) > 1e-9 {
		t.Fatalf("slate/standard convergence ratio %v, want %v", got, wantRatio)
	}

	// Agents: Distributed needs superlinear-in-k agents.
	if dst.MinAgents <= float64(p.N) {
		t.Fatalf("distributed min agents %v should exceed n", dst.MinAgents)
	}
}

func TestDistributedAgentsGrowWithK(t *testing.T) {
	a1 := Predict(Distributed, params(100)).MinAgents
	a2 := Predict(Distributed, params(10000)).MinAgents
	if a2 <= a1*10 {
		t.Fatalf("agents should grow superlinearly: %v -> %v", a1, a2)
	}
}

func TestScoreLinear(t *testing.T) {
	c := Costs{Communication: 2, Memory: 3, Convergence: 5, MinAgents: 7}
	w := Weights{Communication: 1, Memory: 10, Convergence: 100, Agents: 1000}
	want := 2.0 + 30 + 500 + 7000
	if got := Score(c, w); got != want {
		t.Fatalf("score = %v, want %v", got, want)
	}
}

func TestRecommendCommunicationDominatedFavorsDistributed(t *testing.T) {
	// Paper Sec. IV-E-1: weighting only communication + convergence
	// favours Distributed (its convergence matches Standard
	// asymptotically, its communication is exponentially smaller).
	w := Weights{Communication: 1000, Convergence: 0.001}
	rec := Recommend(params(1000), w)
	if rec.Best != Distributed {
		t.Fatalf("recommended %v, want Distributed (scores %v)", rec.Best, rec.Scores)
	}
}

func TestRecommendAgentWeightedFavorsStandard(t *testing.T) {
	// Paper Sec. IV-E-1: "a model in which the number of CPUs used in each
	// iteration is weighted will prefer Standard instead."
	w := Weights{Communication: 1, Convergence: 1, Agents: 1000}
	rec := Recommend(params(1000), w)
	if rec.Best == Distributed {
		t.Fatalf("CPU-weighted model must not pick Distributed (scores %v)", rec.Scores)
	}
}

func TestRecommendScoresComplete(t *testing.T) {
	rec := Recommend(params(100), Weights{Convergence: 1})
	if len(rec.Scores) != 3 {
		t.Fatalf("scores = %v", rec.Scores)
	}
	if rec.Rationale == "" {
		t.Fatal("rationale empty")
	}
}

func TestRecommendForWorkloadAPRCase(t *testing.T) {
	// The paper's APR profile: probes are very expensive (compile + test
	// suite), messages are cheap (a single fitness value), CPUs bounded.
	wl := WorkloadProfile{ProbeCost: 300, MessageCost: 1e-4, CPUBudget: 64}
	rec := RecommendForWorkload(wl, params(1000))
	if rec.Best != Standard {
		t.Fatalf("APR workload recommended %v, want Standard (scores %v)", rec.Best, rec.Scores)
	}
}

func TestRecommendForWorkloadFeasibilityFilter(t *testing.T) {
	// A CPU budget below Distributed's minimum pool must exclude it even
	// if its weighted score is lowest.
	wl := WorkloadProfile{ProbeCost: 1e-6, MessageCost: 100, CPUBudget: 32}
	rec := RecommendForWorkload(wl, params(4096))
	if rec.Best == Distributed {
		t.Fatal("infeasible algorithm recommended")
	}
}

func TestRecommendForWorkloadUnconstrainedCommunication(t *testing.T) {
	// No CPU budget and message-dominated costs: Distributed wins, matching
	// the asymptotic analysis.
	wl := WorkloadProfile{ProbeCost: 1e-9, MessageCost: 10}
	rec := RecommendForWorkload(wl, params(1000))
	if rec.Best != Distributed {
		t.Fatalf("message-dominated workload recommended %v", rec.Best)
	}
}

func TestPredictDefaultsFill(t *testing.T) {
	c := Predict(Standard, Params{K: 100}) // N, ε, β defaulted
	if c.Communication != 16 {
		t.Fatalf("default n = %v", c.Communication)
	}
	if c.Convergence <= 0 {
		t.Fatal("convergence must be positive")
	}
}

func TestPredictUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Predict(Algorithm(42), params(10))
}
