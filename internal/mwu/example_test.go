package mwu_test

import (
	"context"

	"fmt"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/mwu"
	"repro/internal/rng"
)

// ExampleRun demonstrates the core loop: build a problem, pick a learner,
// run to convergence.
func ExampleRun() {
	problem := bandit.NewProblem(dist.New("demo", []float64{0.1, 0.2, 0.9, 0.3}))
	seed := rng.New(7)
	learner := mwu.NewStandard(mwu.StandardConfig{K: 4, Agents: 8, Eta: 0.2}, seed.Split())

	res := mwu.Run(context.Background(), learner, problem, seed.Split(), mwu.RunConfig{MaxIter: 5000, Workers: 1})
	fmt.Println("choice:", res.Choice, "converged:", res.Converged)
	// Output: choice: 2 converged: true
}

// ExampleNewLearner shows the factory with the evaluation's parameter settings.
func ExampleNewLearner() {
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: "slate", K: 100}, rng.New(1))
	if err != nil {
		panic(err)
	}
	fmt.Println(learner.Name(), "slate size:", learner.Agents())
	// Output: slate slate size: 5
}

// ExampleRunMessagePassing runs the Distributed variant as message-passing
// agents with O(1) state that learn only by querying one another.
func ExampleRunMessagePassing() {
	problem := bandit.NewProblem(dist.New("demo", []float64{0.05, 0.9, 0.1}))
	cfg := mwu.DistributedConfig{K: 3, PopSize: 120}
	res, err := mwu.RunMessagePassing(context.Background(), cfg, problem, rng.New(5), 300, nil, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("plurality choice:", res.Choice, "converged:", res.Converged)
	// Output: plurality choice: 1 converged: true
}
