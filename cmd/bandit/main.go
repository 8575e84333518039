// Command bandit runs a single MWU learner on a single dataset and traces
// its convergence: iteration, leader, leader probability, congestion.
// Useful for understanding the dynamics behind the aggregate tables.
//
// Usage:
//
//	bandit -dataset random256 -algorithm distributed [-maxiter 10000]
//	       [-seed 1] [-print-every 50] [-trace run.jsonl] [-trace-sample 10]
//
// -print-every writes human-readable progress lines to stdout;
// -trace records the machine-readable JSONL event stream (internal/obs
// schema). The former was historically called -trace, renamed to free
// the flag for the event stream shared by every binary.
package main

import (
	"context"

	"flag"
	"fmt"
	"os"

	"repro/internal/bandit"
	"repro/internal/cliutil"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/rng"
)

func main() {
	var (
		dsName     = flag.String("dataset", "random256", "dataset name (see -list)")
		list       = flag.Bool("list", false, "list dataset names and exit")
		alg        = flag.String("algorithm", "standard", "standard | distributed | slate | optimistic | congestion")
		maxIter    = flag.Int("maxiter", 10000, "iteration limit")
		seed       = flag.Uint64("seed", 1, "random seed")
		printEvery = flag.Int("print-every", 0, "print a progress line every N iterations (0 = off)")

		faultRate = flag.Float64("faultrate", 0, "inject probe faults at this base rate (0 = off)")
		managed   = flag.Bool("managed", false, "arm default timeout/retry/hedge policies against injected faults")
		cutoff    = flag.Int("cutoff", 0, "straggler cutoff in virtual ticks (0 = wait stragglers out)")
	)
	obsFlags := cliutil.RegisterObsFlags()
	flag.Parse()

	cliutil.Rate01("bandit", "faultrate", *faultRate)
	cliutil.NonNegative("bandit", "cutoff", *cutoff)
	cliutil.NonNegative("bandit", "maxiter", *maxIter)
	cliutil.NonNegative("bandit", "print-every", *printEvery)
	obsFlags.Validate("bandit")

	if *list {
		for _, n := range dataset.Names() {
			fmt.Println(n)
		}
		return
	}

	ds, err := dataset.Get(*dsName)
	if err != nil {
		fatal(err)
	}
	r := rng.New(*seed)
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: *alg, K: ds.Size}, r.Split())
	if err != nil {
		fatal(err)
	}
	problem := bandit.NewProblem(ds.Dist)

	fmt.Printf("%s on %s (k=%d, best arm %d with value %.4f)\n",
		*alg, ds.Name, ds.Size, ds.Dist.Best(), ds.Dist.BestValue())
	fmt.Printf("agents per iteration: %d\n", learner.Agents())

	tracer, reg, obsCleanup := obsFlags.Setup("bandit", obs.RunID(*seed, "bandit", ds.Name, *alg))
	defer obsCleanup()

	cfg := mwu.RunConfig{MaxIter: *maxIter, Workers: 1, StragglerCutoff: *cutoff, Trace: tracer}
	if *faultRate > 0 {
		cfg.Faults = faults.New(faults.Uniform(*seed, *faultRate))
	}
	if *managed {
		cfg.Policies = faults.DefaultPolicies()
	}
	if *printEvery > 0 {
		every := *printEvery
		cfg.OnIteration = func(iter int, l mwu.Learner) bool {
			if iter%every == 0 {
				fmt.Printf("  t=%-6d leader=%-6d leaderProb=%.4f congestion(max)=%d\n",
					iter, l.Leader(), l.LeaderProb(), l.Metrics().MaxCongestion)
			}
			return false
		}
	}
	// SIGINT/SIGTERM cancels the run; mwu.Run returns the best-so-far state
	// and the deferred cleanup flushes the trace.
	ctx, stop := cliutil.SignalContext(context.Background())
	defer stop()
	res := mwu.Run(ctx, learner, problem, r.Split(), cfg)
	learner.Metrics().Export(reg, "mwu")

	fmt.Printf("converged: %v after %d update cycles\n", res.Converged, res.Iterations)
	fmt.Printf("choice: arm %d (value %.4f, accuracy %.2f%%)\n",
		res.Choice, ds.Dist.Value(res.Choice), problem.Accuracy(res.Choice))
	m := learner.Metrics()
	fmt.Printf("cost: %d probes, %d CPU-iterations, congestion max %d mean %.1f, memory %d floats/node\n",
		m.Probes, m.CPUIterations, m.MaxCongestion, m.MeanCongestion(), m.MemoryFloats)
	if m.Faults.Any() {
		fmt.Printf("faults: %s (degraded: %v)\n", m.Faults.String(), res.Degraded)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bandit:", err)
	os.Exit(1)
}
