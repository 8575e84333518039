// Social: the Distributed variant in its native domain — social learning.
//
// A population of 500 agents must collectively discover the best of 40
// restaurants. No agent keeps statistics (memoryless, O(1) state): each
// evening an agent either tries a random restaurant (probability μ) or
// asks a random neighbor where they currently go, eats there, and adopts
// it with probability β if the meal was good. The distribution over
// restaurants lives only in the population's choices. The run uses
// mwu.RunMessagePassing, which drives the same Distributed learner the
// tables use as a set of agents that learn only by querying one another;
// no faults are injected here, so it is that learner's mwu.Run trajectory.
//
//	go run ./examples/social
package main

import (
	"context"

	"fmt"
	"sort"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/mwu"
	"repro/internal/rng"
)

func main() {
	const restaurants, agents = 40, 500
	seed := rng.New(2024)

	quality := make([]float64, restaurants)
	for i := range quality {
		quality[i] = 0.2 + 0.6*seed.Float64()
	}
	best := 0
	for i, q := range quality {
		if q > quality[best] {
			best = i
		}
	}
	quality[best] = 0.95 // one clearly great spot

	problem := bandit.NewProblem(dist.New("restaurants", quality))
	cfg := mwu.DistributedConfig{
		K:       restaurants,
		PopSize: agents,
		Mu:      0.05,
		Beta:    0.8,
		Alpha:   0.01,
	}

	res, err := mwu.RunMessagePassing(context.Background(), cfg, problem, seed.Split(), 500, nil, nil)
	if err != nil {
		panic(err)
	}

	fmt.Printf("population of %d agents, %d restaurants, message-passing engine\n", agents, restaurants)
	fmt.Printf("converged: %v after %d evenings\n", res.Converged, res.Iterations)
	fmt.Printf("plurality restaurant: #%d with %.0f%% of the population (true quality %.2f; best is #%d at %.2f)\n",
		res.Choice, 100*res.LeaderProb, quality[res.Choice], best, quality[best])
	fmt.Printf("communication: %d messages total, worst per-evening congestion %d (population %d)\n",
		res.Metrics.MessagesSent, res.Metrics.MaxCongestion, agents)
	fmt.Printf("per-agent memory: %d word (the weight vector exists only as popularity)\n",
		res.Metrics.MemoryFloats)

	// Show the most popular restaurants by final meal count.
	pulls := make([]int, restaurants)
	for i := range pulls {
		pulls[i] = int(problem.Pulls(i))
	}
	order := make([]int, restaurants)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return pulls[order[a]] > pulls[order[b]] })
	fmt.Print("most-visited restaurants: ")
	for _, r := range order[:5] {
		fmt.Printf("#%d(q=%.2f, %d visits) ", r, quality[r], pulls[r])
	}
	fmt.Println()
}
