package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/bandit"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/mwu"
	"repro/internal/rng"
)

// tablesCell is one Tables II–IV cell: a learner on a synthetic value
// distribution of k options.
type tablesCell struct {
	alg    string
	family string // "random" or "unimodal"
	k      int
}

func (c tablesCell) dataset() string { return fmt.Sprintf("%s%d", c.family, c.k) }

// tablesCells is one seed slot. Distributed runs on random256 and
// unimodal1024: on unimodal256 it needs anywhere from 35 to 270 ms, which
// straddles the slot's median job and made job_p50_ms jump from seed to
// seed.
var tablesCells = []tablesCell{
	{"standard", "random", 16384}, {"standard", "unimodal", 16384},
	{"optimistic", "random", 16384}, {"optimistic", "unimodal", 16384},
	{"congestion", "random", 16384}, {"congestion", "unimodal", 16384},
	{"slate", "random", 4096}, {"slate", "unimodal", 4096},
	{"distributed", "random", 256}, {"distributed", "unimodal", 1024},
}

const (
	// tablesMaxIter is the paper's iteration limit for Tables II–IV.
	tablesMaxIter = 10000
	// tablesSlotsPerSecond is the rate at which the measured pass got
	// through seed slots on the machine the bounds were fixed on (see
	// runOpts.slots).
	tablesSlotsPerSecond = 0.55
)

// buildDistributions generates every distinct distribution the cells use:
// the instances of internal/dataset's synthetic catalogue, which seeds
// instance i of dataset.SyntheticSizes with 0xA11CE+i (random) or 0xB0B0+i
// (unimodal). They are rebuilt here because the catalogue memoizes them,
// and set-up must do the same work every time it is repeated; a test
// checks the two agree.
func buildDistributions() map[string]*dist.Distribution {
	out := map[string]*dist.Distribution{}
	for _, c := range tablesCells {
		name := c.dataset()
		if out[name] != nil {
			continue
		}
		i := uint64(slices.Index(dataset.SyntheticSizes, c.k))
		if c.family == "random" {
			out[name] = dist.Random(name, c.k, rng.New(0xA11CE+i))
		} else {
			out[name] = dist.Unimodal(name, c.k, dist.RandomUnimodalParams(rng.New(0xB0B0+i)))
		}
	}
	return out
}

type tablesJob struct {
	cell int
	seed uint64
}

func (j tablesJob) String() string {
	c := tablesCells[j.cell]
	return fmt.Sprintf("%s/%s/seed %d", c.alg, c.dataset(), j.seed)
}

type tablesResult struct {
	job     tablesJob
	latency time.Duration
	run     mwu.RunResult
	probes  int64
	pulls   int64
	sampler int64
	err     error
}

// tablesBench is the tables workload: convergence runs of every learner
// on bandit problems, where draw and update are the whole cost.
type tablesBench struct {
	dists   map[string]*dist.Distribution
	results []tablesResult
}

// runCell runs one convergence run; with a tracer, the learner is timed.
func (b *tablesBench) runCell(j tablesJob, tr *tracer, i int) tablesResult {
	c := tablesCells[j.cell]
	t0 := time.Now()
	var start int64
	if tr != nil {
		start = tr.now()
	}
	seed := rng.New(j.seed)
	learner, err := mwu.NewLearner(mwu.Config{Algorithm: c.alg, K: c.k}, seed.Split())
	if err != nil {
		return tablesResult{job: j, err: err}
	}
	l := learner
	var tl *timedLearner
	var jobSpan, runSpan int
	if tr != nil {
		jobSpan = tr.open(layerJob, i, -1, start)
		runSpan = tr.open(layerRun, i, jobSpan, start)
		l, tl = timeLearner(learner, tr, i, runSpan)
	}
	problem := bandit.NewProblem(b.dists[c.dataset()])
	rr := mwu.Run(context.Background(), l, problem, seed.Split(), mwu.RunConfig{MaxIter: tablesMaxIter, Workers: probeWorkers})
	res := tablesResult{job: j, latency: time.Since(t0), run: rr, probes: learner.Metrics().Probes,
		pulls: problem.TotalPulls(), sampler: learner.Metrics().SamplerContention, err: rr.Err}
	if tr != nil {
		tl.finish()
		end := tr.now()
		tr.close(runSpan, end)
		tr.close(jobSpan, end)
		res.latency = time.Duration(end - start)
	}
	return res
}

func (b *tablesBench) run(o runOpts) (*outcome, error) {
	out := &outcome{}
	if err := out.timeSetUp(func() error { b.dists = buildDistributions(); return nil }, b.close); err != nil {
		return nil, err
	}
	slots := o.slots(tablesSlotsPerSecond)
	start := time.Now()
	for slot := 0; slot < slots; slot++ {
		for cell := range tablesCells {
			j := tablesJob{cell: cell, seed: jobSeed(o.seed, slot)}
			b.results = append(b.results, b.runCell(j, nil, len(b.results)))
		}
	}
	out.wall = time.Since(start)
	for i, r := range b.results {
		js := jobStat{latency: ms(r.latency), solved: r.run.Converged}
		if err := r.check(); err != nil {
			out.failf("job %d (%v): %v", i, r.job, err)
			js.latency = inf
		} else {
			js.ok = true
		}
		out.jobs = append(out.jobs, js)
	}
	return out, nil
}

// check verifies a run's output: a valid choice, and a probe count the
// learner and the problem agree on.
func (r tablesResult) check() error {
	if r.err != nil {
		return r.err
	}
	k := tablesCells[r.job.cell].k
	if r.run.Choice < 0 || r.run.Choice >= k {
		return fmt.Errorf("choice %d outside [0,%d)", r.run.Choice, k)
	}
	if r.run.Iterations < 1 || r.run.Iterations > tablesMaxIter {
		return fmt.Errorf("%d iterations outside [1,%d]", r.run.Iterations, tablesMaxIter)
	}
	if r.pulls != r.probes {
		return fmt.Errorf("problem counted %d pulls, learner %d probes", r.pulls, r.probes)
	}
	return nil
}

func (b *tablesBench) traced(o runOpts, tr *tracer, out *outcome) (map[string]float64, error) {
	var cycles, probes, sampler float64
	for i, u := range b.results {
		r := b.runCell(u.job, tr, i)
		if r.err == nil && u.err == nil && (r.run.Iterations != u.run.Iterations ||
			r.run.Converged != u.run.Converged || r.run.Choice != u.run.Choice || r.probes != u.probes) {
			out.failf("traced job %d (%v) differs from untraced: %d iterations, choice %d vs %d iterations, choice %d",
				i, u.job, r.run.Iterations, r.run.Choice, u.run.Iterations, u.run.Choice)
		}
		cycles += float64(r.run.Iterations)
		probes += float64(r.probes)
		sampler += float64(r.sampler)
	}
	n := float64(len(b.results))
	return map[string]float64{
		"cycles_per_job":         ratio(cycles, n),
		"probes_per_job":         ratio(probes, n),
		"mwu.sampler_contention": sampler,
	}, nil
}

func (b *tablesBench) close() error { return nil }
