// Package baseline implements the search-based APR algorithms MWRepair is
// compared against in Sec. IV-G of the paper: GenProg (a genetic algorithm
// over patches), RSRepair (random search with the same operators), and AE
// (deterministic single-edit enumeration with equivalence-based
// deduplication). jGenProg is GenProg run on the Java-profile scenarios;
// the harness makes that distinction.
//
// All baselines share MWRepair's mutation operator vocabulary
// (internal/mutation) and fitness function, so the explored search space
// is the same — the paper's condition for a fair comparison. Costs are
// reported in fitness evaluations (deduplicated mutants are free, which is
// precisely AE's adaptive-equivalence economy) and in serial latency:
// these tools evaluate candidates sequentially, whereas MWRepair's latency
// is its iteration count because each iteration's probes run in parallel.
package baseline

import (
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/testsuite"
	"repro/internal/wrs"
)

// Result summarizes one baseline repair attempt.
type Result struct {
	// Algorithm is the baseline's name.
	Algorithm string
	// Repaired reports whether a full repair was found.
	Repaired bool
	// Patch is the repairing mutation set (nil if none).
	Patch []mutation.Mutation
	// FitnessEvals is the number of distinct test-suite executions.
	FitnessEvals int64
	// CacheHits counts candidate evaluations answered by the fitness
	// cache (AE's adaptive-equivalence economy made explicit).
	CacheHits int64
	// CandidatesTried counts candidate patches considered (including
	// duplicates resolved by the cache).
	CandidatesTried int64
	// Latency is the serial latency proxy: the number of sequential
	// evaluation steps the tool performed (== CandidatesTried for these
	// single-threaded searches).
	Latency int64
	// Generations counts GA generations (GenProg only).
	Generations int
	// Faults is the resilience ledger: candidate-evaluation faults
	// injected into the run and the retries that absorbed them (zero
	// without an injector).
	Faults faults.Stats
	// Degraded reports that faults cost the search candidates (a faulted
	// evaluation whose retries ran out scores as a failed candidate).
	Degraded bool
}

// Config bounds a baseline run.
type Config struct {
	// MaxEvals caps fitness evaluations; 0 means 20000.
	MaxEvals int64
	// PopSize is the GA population (GenProg); 0 means 40.
	PopSize int
	// CrossoverRate is the GA crossover probability; 0 means 0.5.
	CrossoverRate float64
	// MutationRate is the probability a GA child gains a fresh mutation;
	// 0 means 0.5.
	MutationRate float64
	// NegWeight is the weighted-fitness multiplier for bug-inducing tests
	// (GenProg uses 10).
	NegWeight float64
	// Faults, when non-nil, injects candidate-evaluation faults into the
	// baseline's serial loop (keyed by candidate sequence number, so the
	// schedule is seed-deterministic).
	Faults *faults.Injector
	// Retry re-issues faulted candidate evaluations; the zero value
	// retries nothing.
	Retry faults.Retry
	// Trace, when active, receives generation events marking the search's
	// milestones: one per GA generation for GenProg, one per sampled
	// candidate window for RSRepair and AE. The searches are serial, so
	// the stream is trivially deterministic.
	Trace *obs.Tracer
}

func (c *Config) fill() {
	if c.MaxEvals <= 0 {
		c.MaxEvals = 20000
	}
	if c.PopSize <= 0 {
		c.PopSize = 40
	}
	if c.CrossoverRate <= 0 {
		c.CrossoverRate = 0.5
	}
	if c.MutationRate <= 0 {
		c.MutationRate = 0.5
	}
	if c.NegWeight <= 0 {
		c.NegWeight = 10
	}
}

// Problem bundles what every baseline needs.
type Problem struct {
	Program *lang.Program
	Suite   *testsuite.Suite
	// weights[i] is the fault-localization weight of statement i.
	weights []float64
	targets []int // statements with positive weight
	// targetAlias samples a position in targets proportionally to its
	// suspiciousness in O(1). Fault localization is fixed for the whole
	// run, the exact setting an alias table is built for; the baselines
	// draw one mutation per candidate, thousands of times per repair.
	targetAlias *wrs.Alias
	runner      *testsuite.Runner

	// Fault-injection state (configured per run by configureFaults):
	// these searches are serial, so plain counters suffice.
	inj      *faults.Injector
	retry    faults.Retry
	seq      int
	fstats   faults.Stats
	degraded bool
	trace    *obs.Tracer
}

// NewProblem builds the shared search state, including GenProg-style fault
// localization: statements executed only by failing (negative) tests get
// weight 1.0, statements executed by both get 0.1, all others 0.
func NewProblem(p *lang.Program, s *testsuite.Suite) *Problem {
	posCov := coverageOf(p, s.Positive)
	negCov := coverageOf(p, s.Negative)
	pr := &Problem{
		Program: p,
		Suite:   s,
		weights: make([]float64, p.Len()),
		runner:  testsuite.NewRunner(s),
	}
	for i := range pr.weights {
		switch {
		case negCov[i] && !posCov[i]:
			pr.weights[i] = 1.0
		case negCov[i] && posCov[i]:
			pr.weights[i] = 0.1
		}
		if pr.weights[i] > 0 {
			pr.targets = append(pr.targets, i)
		}
	}
	if len(pr.targets) > 0 {
		tw := make([]float64, len(pr.targets))
		for j, t := range pr.targets {
			tw[j] = pr.weights[t]
		}
		tab, err := wrs.NewAlias(tw)
		if err != nil {
			// tw holds only the strictly-positive fault weights — a
			// rejection here means the weighting scheme itself broke.
			panic(fmt.Sprintf("baseline: target weights unsampleable: %v", err))
		}
		pr.targetAlias = tab
	}
	return pr
}

func coverageOf(p *lang.Program, tests []testsuite.Test) []bool {
	cov := make([]bool, p.Len())
	for _, tc := range tests {
		res := lang.Run(p, lang.Options{Input: tc.Input, Trace: true, MaxSteps: tc.MaxSteps})
		for i, c := range res.Coverage {
			if c {
				cov[i] = true
			}
		}
	}
	return cov
}

// Runner exposes the shared evaluation runner (for inspecting counters).
func (pr *Problem) Runner() *testsuite.Runner { return pr.runner }

// Targets returns the fault-localized statement indices.
func (pr *Problem) Targets() []int { return append([]int(nil), pr.targets...) }

// randomMutation draws one mutation targeting a fault-localized statement,
// weighted by suspiciousness. The target draw goes through the alias table
// (O(1) instead of a linear scan over the targets) and consumes exactly
// one variate, like the scan it replaced.
func (pr *Problem) randomMutation(r *rng.RNG) mutation.Mutation {
	if len(pr.targets) == 0 {
		panic("baseline: no fault-localized statements")
	}
	at := pr.targets[pr.targetAlias.Draw(r)]
	op := mutation.Ops[r.Intn(len(mutation.Ops))]
	m := mutation.Mutation{Op: op, At: at}
	if op != mutation.Delete {
		m.From = r.Intn(pr.Program.Len())
	}
	return m
}

// configureFaults arms (or disarms) fault injection for one run; every
// baseline entry point calls it after filling its config.
func (pr *Problem) configureFaults(cfg Config) {
	pr.inj = cfg.Faults
	pr.retry = cfg.Retry
	pr.seq = 0
	pr.fstats = faults.Stats{}
	pr.degraded = false
	pr.trace = cfg.Trace
}

// traceGeneration emits one search-milestone event: iter is the
// generation (GenProg) or candidate index (RSRepair, AE), best the best
// weighted fitness seen so far.
func (pr *Problem) traceGeneration(iter int, algo string, best float64) {
	if pr.trace.Active() {
		pr.trace.Emit(obs.Event{Type: obs.TypeGeneration, Iter: iter, Kind: algo,
			N: pr.runner.Evals(), Value: best})
	}
}

// evaluate scores a patch, returning its fitness and whether it repairs.
// Under fault injection, the evaluation's fate is decided first: a
// straggler merely slows a serial tool (counted, then evaluated anyway),
// while a hang/loss/panic consumes the candidate unless a Retry re-issues
// it — a baseline has no barrier to stall, it just wastes the trial.
func (pr *Problem) evaluate(patch []mutation.Mutation) (testsuite.Fitness, bool) {
	if pr.inj.Enabled() {
		seq := pr.seq
		pr.seq++
		for attempt := 0; ; attempt++ {
			kind := pr.inj.ProbeFault(0, seq, attempt)
			if kind == faults.None {
				break
			}
			pr.fstats.Injected++
			switch kind {
			case faults.Straggle:
				pr.fstats.Stragglers++
			case faults.Hang:
				pr.fstats.Hangs++
			case faults.Loss:
				pr.fstats.Losses++
			case faults.Panic:
				pr.fstats.Panics++
			}
			if kind == faults.Straggle {
				break // late, not lost: the serial loop just waits it out
			}
			if pr.retry.Enabled() && attempt < pr.retry.Max {
				pr.fstats.Retries++
				continue
			}
			pr.fstats.Missing++
			pr.degraded = true
			return testsuite.Fitness{}, false
		}
	}
	mutant := mutation.Apply(pr.Program, patch)
	f := pr.runner.Eval(context.Background(), mutant)
	return f, f.Repair()
}

// faultResult copies the run's fault ledger into a baseline result.
func (pr *Problem) faultResult(res *Result) {
	res.Faults = pr.fstats
	res.Degraded = pr.degraded
}
