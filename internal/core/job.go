package core

import (
	"cmp"
	"context"
	"fmt"

	"repro/internal/faults"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testsuite"
)

// Job is one repair job over a scenario, with the knobs mwrepair's flags
// and the daemon's job spec share; RunJob runs it. The scenario supplies
// MaxX, the pool target, the congestion λ and the drift schedule.
type Job struct {
	Scenario *scenario.Scenario
	// Pool, when set, replaces the phase-1 build; RunJob rejects it
	// unless it was built for the scenario's program.
	Pool *pool.Pool
	// Zero Algorithm, Seed, MaxIter and Workers take WithDefaults' values;
	// zero Agents, Rate and Convergence the learner's (mwu.Config).
	Algorithm         string
	Seed              uint64
	MaxIter, Workers  int
	Agents            int
	Rate, Convergence float64
	// FaultRate > 0 injects probe faults (faults.Uniform), Managed arms
	// faults.DefaultPolicies and Cutoff is Config.StragglerCutoff.
	FaultRate float64
	Managed   bool
	Cutoff    int
	// Trace, Registry and Store serve both phases; OnProgress is Config's.
	Trace      *obs.Tracer
	Registry   *obs.Registry
	Store      *store.Store
	OnProgress func(Progress)
}

// WithDefaults returns j with each zero knob set to the value mwrepair's
// flag defaults to.
func (j Job) WithDefaults() Job {
	j.Algorithm = cmp.Or(j.Algorithm, "standard")
	j.Seed = cmp.Or(j.Seed, 1)
	j.MaxIter = cmp.Or(j.MaxIter, 2000)
	j.Workers = cmp.Or(j.Workers, 8)
	return j
}

// Label is the run ID the job's trace carries. It names the logical run,
// not the process, so an mwrepair run and a daemon job of the same job
// carry the same label.
func (j Job) Label() string {
	j = j.WithDefaults()
	return obs.RunID(j.Seed, "mwrepair", j.Scenario.Profile.Name, j.Algorithm)
}

// BuildPool runs a job's phase 1 alone, seeded by the job seed's first
// split: the pool RunJob itself builds, and the seed it then skips.
func BuildPool(ctx context.Context, j Job) *pool.Pool {
	j = j.WithDefaults()
	pl := j.Scenario.BuildPoolStored(ctx, j.Workers, rng.New(j.Seed).Split(), j.Trace, j.Store)
	pl.Stats().Export(j.Registry, "pool")
	return pl
}

// RunJob runs a scenario's whole two-phase repair job (paper Fig. 5/6):
// it builds the safe-mutation pool, or checks j.Pool against the
// scenario, and then runs the online MWU search over it, seeded by the
// job seed's second split. An empty pool is an error, unless ctx was
// cancelled, in which case the Result is Cancelled. The pool is returned
// whenever phase 1 produced one.
func RunJob(ctx context.Context, j Job) (*pool.Pool, Result, error) {
	j = j.WithDefaults()
	sc, pl := j.Scenario, j.Pool
	if pl == nil {
		pl = BuildPool(ctx, j)
	} else if orig := pl.Original(); testsuite.ProgramKey(orig) != testsuite.ProgramKey(sc.Program) {
		return nil, Result{}, fmt.Errorf("pool was built for a %d-statement program that is not scenario %s's %d-statement program",
			orig.Len(), sc.Profile.Name, sc.Program.Len())
	}
	if pl.Size() == 0 {
		if ctx.Err() != nil {
			return pl, Result{Cancelled: true}, nil
		}
		return pl, Result{}, fmt.Errorf("empty mutation pool: no safe mutations found for %s (%d candidates evaluated)",
			sc.Profile.Name, pl.Stats().Evaluated)
	}

	cfg := Config{
		MaxIter:          j.MaxIter,
		Workers:          j.Workers,
		MaxX:             sc.Profile.Options,
		StragglerCutoff:  j.Cutoff,
		Trace:            j.Trace,
		Registry:         j.Registry,
		OnProgress:       j.OnProgress,
		Store:            j.Store,
		Drift:            sc.Drift,
		CongestionLambda: sc.Profile.CongestionLambda,
	}
	if j.FaultRate > 0 {
		cfg.Faults = faults.New(faults.Uniform(j.Seed, j.FaultRate))
	}
	if j.Managed {
		cfg.Policies = faults.DefaultPolicies()
	}
	r := rng.New(j.Seed)
	r.Split() // the pool seed, consumed whether the pool was built or loaded
	learner := mwu.Config{Algorithm: j.Algorithm, Agents: j.Agents, Rate: j.Rate, Convergence: j.Convergence}
	res, err := repairWith(ctx, learner, pl, sc.Suite, r.Split(), cfg)
	return pl, res, err
}
