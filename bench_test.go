package repro

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design decisions called out in
// DESIGN.md. Benchmarks report domain metrics (update cycles, accuracy,
// CPU-iterations, densities) via b.ReportMetric, so `go test -bench=.
// -benchmem` regenerates the quantities behind every table row at reduced
// replication counts; cmd/experiments produces the fully formatted tables.

import (
	"context"

	"hash/fnv"
	"sync"
	"testing"

	"repro/internal/bandit"
	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/lang"
	"repro/internal/mutation"
	"repro/internal/mwu"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/testsuite"
)

// benchDatasets is the representative slice of the 20-dataset registry
// used by the per-table benchmarks (one per dataset group, small enough to
// iterate).
var benchDatasets = []string{"random256", "unimodal256", "lighttpd-1806-1807", "Chart26"}

// runTableCell executes one (algorithm, dataset) cell with a single seed
// per b.N iteration and reports the Table II/III/IV metrics.
func runTableCell(b *testing.B, alg, ds string) {
	b.Helper()
	d := dataset.MustGet(ds)
	var iters, acc, cpu float64
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := rng.New(uint64(0xBE7C + i))
		learner, err := mwu.NewLearner(mwu.Config{Algorithm: alg, K: d.Size}, seed.Split())
		if err != nil {
			b.Skipf("%s on %s intractable: %v", alg, ds, err)
		}
		p := bandit.NewProblem(d.Dist)
		res := mwu.Run(context.Background(), learner, p, seed.Split(), mwu.RunConfig{MaxIter: 10000, Workers: 1})
		iters += float64(res.Iterations)
		acc += p.Accuracy(res.Choice)
		cpu += float64(res.CPUIterations)
		count++
	}
	b.ReportMetric(iters/float64(count), "update-cycles")
	b.ReportMetric(acc/float64(count), "accuracy-%")
	b.ReportMetric(cpu/float64(count), "cpu-iterations")
}

// BenchmarkTable2Convergence regenerates Table II cells: update cycles
// until convergence per algorithm and dataset group.
func BenchmarkTable2Convergence(b *testing.B) {
	for _, alg := range mwu.Names {
		for _, ds := range benchDatasets {
			b.Run(alg+"/"+ds, func(b *testing.B) { runTableCell(b, alg, ds) })
		}
	}
}

// BenchmarkTable3Accuracy regenerates Table III cells (the accuracy-%
// metric of the same runs; kept separate so each table has a named
// regeneration target).
func BenchmarkTable3Accuracy(b *testing.B) {
	for _, alg := range mwu.Names {
		b.Run(alg+"/random256", func(b *testing.B) { runTableCell(b, alg, "random256") })
	}
}

// BenchmarkTable4CPUCost regenerates Table IV cells (CPU-iterations =
// update cycles × agents).
func BenchmarkTable4CPUCost(b *testing.B) {
	for _, alg := range mwu.Names {
		b.Run(alg+"/unimodal256", func(b *testing.B) { runTableCell(b, alg, "unimodal256") })
	}
}

// BenchmarkTable1Congestion regenerates the communication row of Table I:
// measured balls-into-bins congestion vs the ln n/ln ln n bound for the
// Distributed variant, against O(n) for Standard/Slate.
func BenchmarkTable1Congestion(b *testing.B) {
	r := rng.New(1)
	const n = 10000
	var maxLoad float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maxLoad += float64(congestion.MaxLoad(n, n, r))
	}
	b.ReportMetric(maxLoad/float64(b.N), "distributed-congestion")
	b.ReportMetric(congestion.BallsIntoBinsBound(n), "lnn-lnlnn-bound")
	b.ReportMetric(float64(congestion.StandardCongestion(n)), "standard-congestion")
}

// BenchmarkTable1Memory regenerates the memory row of Table I from real
// learner accounting.
func BenchmarkTable1Memory(b *testing.B) {
	const k = 1024
	seed := rng.New(2)
	b.ResetTimer()
	var std, dst, slt float64
	for i := 0; i < b.N; i++ {
		s := mwu.NewStandard(mwu.StandardConfig{K: k}, seed.Split())
		d := mwu.MustDistributed(mwu.DistributedConfig{K: k}, seed.Split())
		l := mwu.NewSlate(mwu.SlateConfig{K: k}, seed.Split())
		std = float64(s.Metrics().MemoryFloats)
		dst = float64(d.Metrics().MemoryFloats)
		slt = float64(l.Metrics().MemoryFloats)
	}
	b.ReportMetric(std, "standard-memory")
	b.ReportMetric(dst, "distributed-memory")
	b.ReportMetric(slt, "slate-memory")
}

// BenchmarkFig4aSafeDensity regenerates Figure 4a's curves at x = 32 on
// the lighttpd scenario (full sweeps via cmd/experiments -figures).
func BenchmarkFig4aSafeDensity(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	seed := rng.New(3)
	pl := sc.BuildPool(8, seed.Split())
	r := seed.Split()
	b.ResetTimer()
	var dens float64
	for i := 0; i < b.N; i++ {
		d := scenario.MeasureSafeDensity(pl, sc.Suite, []int{32}, 20, r)
		dens += d[0]
	}
	b.ReportMetric(dens/float64(b.N), "safe-density@32")
}

// BenchmarkFig4bRepairDensity regenerates Figure 4b's measurement at a
// mid-range composition size.
func BenchmarkFig4bRepairDensity(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	seed := rng.New(4)
	pl := sc.BuildPool(8, seed.Split())
	r := seed.Split()
	b.ResetTimer()
	var dens float64
	for i := 0; i < b.N; i++ {
		d := scenario.MeasureRepairDensity(pl, sc.Suite, []int{8}, 20, r)
		dens += d[0]
	}
	b.ReportMetric(dens/float64(b.N), "repair-density@8")
}

// BenchmarkCostModel regenerates the Sec. IV-E/F decision model.
func BenchmarkCostModel(b *testing.B) {
	p := costmodel.Params{K: 1000, N: 16, Epsilon: 0.05, Beta: 0.71}
	wl := costmodel.WorkloadProfile{ProbeCost: 300, MessageCost: 1e-4, CPUBudget: 64}
	var standardWins int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := costmodel.RecommendForWorkload(wl, p)
		if rec.Best == costmodel.Standard {
			standardWins++
		}
	}
	if standardWins != b.N {
		b.Fatalf("APR workload recommendation flipped: %d/%d", standardWins, b.N)
	}
}

// BenchmarkAPRComparison regenerates the Sec. IV-G comparison on the
// smallest scenario: MWRepair vs the three baselines.
func BenchmarkAPRComparison(b *testing.B) {
	var mwEvals, gpLatency, mwIters float64
	count := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := experiments.RunAPR(experiments.APRSpec{
			Scenarios: []string{"lighttpd-1806-1807"},
			MaxIter:   2000,
			MaxEvals:  20000,
			Workers:   8,
			Seed:      uint64(0xA9A + i),
		})
		if err != nil {
			b.Fatal(err)
		}
		r := sum.Rows[0]
		if !r.MWRepaired {
			b.Fatal("MWRepair failed on the smallest scenario")
		}
		mwEvals += float64(r.MWFitnessEvals)
		mwIters += float64(r.MWIterations)
		gpLatency += float64(r.GenProg.Latency)
		count++
	}
	b.ReportMetric(mwEvals/float64(count), "mwrepair-evals")
	b.ReportMetric(mwIters/float64(count), "mwrepair-latency")
	b.ReportMetric(gpLatency/float64(count), "genprog-latency")
}

// BenchmarkAblationPrecompute quantifies the precompute phase's point
// (Sec. III-C): with a pool, a probe of x mutations is one composition +
// one suite run; generating x safe mutations on the fly costs a stream of
// rejected candidates each needing its own suite run.
func BenchmarkAblationPrecompute(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	seed := rng.New(5)
	pl := sc.BuildPool(8, seed.Split())
	covered := testsuite.CoveredIndices(sc.Program, sc.Suite)
	const x = 16

	b.Run("pooled", func(b *testing.B) {
		runner := testsuite.NewRunner(sc.Suite)
		r := seed.Split()
		for i := 0; i < b.N; i++ {
			mutant, _ := pl.ApplySample(x, r)
			runner.Eval(context.Background(), mutant)
		}
	})
	b.Run("on-the-fly", func(b *testing.B) {
		runner := testsuite.NewRunner(sc.Suite)
		posRunner := testsuite.NewRunner(&testsuite.Suite{Positive: sc.Suite.Positive})
		r := seed.Split()
		for i := 0; i < b.N; i++ {
			// Generate x individually safe mutations from scratch,
			// paying a suite run per candidate.
			muts := make([]mutation.Mutation, 0, x)
			for len(muts) < x {
				m := mutation.Random(sc.Program, covered, r)
				if posRunner.EvalNoCache(mutation.Apply(sc.Program, []mutation.Mutation{m})).Safe() {
					muts = append(muts, m)
				}
			}
			runner.Eval(context.Background(), mutation.Apply(sc.Program, muts))
		}
	})
}

// BenchmarkAblationDedupCache quantifies the mutant deduplication cache
// (the repeated-evaluation waste the paper attributes to naive search).
func BenchmarkAblationDedupCache(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	seed := rng.New(6)
	pl := sc.BuildPool(8, seed.Split())
	b.Run("cached", func(b *testing.B) {
		runner := testsuite.NewRunner(sc.Suite)
		r := seed.Split()
		for i := 0; i < b.N; i++ {
			mutant, _ := pl.ApplySample(1, r)
			runner.Eval(context.Background(), mutant)
		}
	})
	b.Run("uncached", func(b *testing.B) {
		runner := testsuite.NewRunner(sc.Suite)
		r := seed.Split()
		for i := 0; i < b.N; i++ {
			mutant, _ := pl.ApplySample(1, r)
			runner.EvalNoCache(mutant)
		}
	})
}

// singleMutexRunner replicates the seed Runner's cache design — one global
// sync.Mutex in front of a plain map, with no singleflight — as the
// ablation baseline for the Runner's cache. Misses fall through to an
// uncached evaluation, exactly like the original.
type singleMutexRunner struct {
	runner *testsuite.Runner
	mu     sync.Mutex
	cache  map[uint64]testsuite.Fitness
}

func (m *singleMutexRunner) eval(p *lang.Program) testsuite.Fitness {
	h := fnv.New64a()
	for _, s := range p.Stmts {
		h.Write([]byte(s.String()))
		h.Write([]byte{'\n'})
	}
	key := h.Sum64()
	m.mu.Lock()
	if f, ok := m.cache[key]; ok {
		m.mu.Unlock()
		return f
	}
	m.mu.Unlock()
	f := m.runner.EvalNoCache(p)
	m.mu.Lock()
	m.cache[key] = f
	m.mu.Unlock()
	return f
}

// BenchmarkRunnerCacheHitThroughput measures parallel cache-hit throughput
// — the online loop's hot path once the mutant population stabilizes — for
// the Runner's one-lock cache against the seed's single-mutex map. The
// workload is 8 goroutines hitting a fully warmed cache of small mutants;
// per-op suite cost is negligible, so the numbers isolate lock contention.
func BenchmarkRunnerCacheHitThroughput(b *testing.B) {
	const mutants = 128
	const workers = 8
	programs := make([]*lang.Program, mutants)
	for i := range programs {
		programs[i] = lang.MustParse("print " + itoa(i) + "\n")
	}
	suite := &testsuite.Suite{Positive: []testsuite.Test{{Name: "p", Want: []int64{0}}}}

	bench := func(b *testing.B, eval func(*lang.Program) testsuite.Fitness) {
		for _, p := range programs {
			eval(p) // warm the cache: the measured loop is hits only
		}
		per := (b.N + workers - 1) / workers
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					eval(programs[(i*(w+2)+w)%mutants])
				}
			}(w)
		}
		wg.Wait()
	}

	b.Run("runner", func(b *testing.B) {
		r := testsuite.NewRunner(suite)
		bench(b, func(p *lang.Program) testsuite.Fitness { return r.Eval(context.Background(), p) })
	})
	b.Run("mutex", func(b *testing.B) {
		m := &singleMutexRunner{runner: testsuite.NewRunner(suite), cache: map[uint64]testsuite.Fitness{}}
		bench(b, m.eval)
	})
}

// BenchmarkRunnerDuplicateProbeThroughput measures the Runner's
// singleflight: 8 workers probing the same fresh expensive mutant
// simultaneously — the scenario where several MWU agents sample the same
// arm and compose the same mutation set. The seed's check-then-evaluate
// cache races and pays up to 8 full suite runs per round; the Runner
// executes the suite once and the other workers join the
// in-flight evaluation. Evaluation is made long enough (~10ms) that
// workers genuinely overlap regardless of core count.
func BenchmarkRunnerDuplicateProbeThroughput(b *testing.B) {
	const workers = 8
	// One long-running test (millions of interpreter steps) so a suite run
	// spans scheduler preemption slices.
	suite := &testsuite.Suite{Positive: []testsuite.Test{{
		Name: "slow", Input: []int64{1500000}, Want: []int64{1500001}, MaxSteps: 15000000,
	}}}
	src := func(i int) string {
		return "input n\nset i = " + itoa(i) + " - " + itoa(i) + "\nlabel loop\nif i > n goto done\nset i = i + 1\ngoto loop\nlabel done\nprint i\n"
	}

	bench := func(b *testing.B, eval func(*lang.Program) testsuite.Fitness) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := lang.MustParse(src(i)) // fresh program each round: all misses
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					eval(p)
				}()
			}
			close(start)
			wg.Wait()
		}
	}

	b.Run("runner", func(b *testing.B) {
		r := testsuite.NewRunner(suite)
		bench(b, func(p *lang.Program) testsuite.Fitness { return r.Eval(context.Background(), p) })
		b.ReportMetric(float64(r.Evals())/float64(b.N), "suite-runs/round")
	})
	b.Run("mutex", func(b *testing.B) {
		m := &singleMutexRunner{runner: testsuite.NewRunner(suite), cache: map[uint64]testsuite.Fitness{}}
		bench(b, m.eval)
		b.ReportMetric(float64(m.runner.Evals())/float64(b.N), "suite-runs/round")
	})
}

// BenchmarkAblationEta sweeps the Standard learning rate on one dataset,
// the parameter-interaction question raised in the paper's Sec. VI.
func BenchmarkAblationEta(b *testing.B) {
	d := dataset.MustGet("random256")
	for _, eta := range []float64{0.01, 0.05, 0.1, 0.25} {
		b.Run("eta="+ftoa(eta), func(b *testing.B) {
			var iters, acc float64
			count := 0
			for i := 0; i < b.N; i++ {
				seed := rng.New(uint64(0xE7A + i))
				learner := mwu.NewStandard(mwu.StandardConfig{K: d.Size, Agents: 16, Eta: eta}, seed.Split())
				p := bandit.NewProblem(d.Dist)
				res := mwu.Run(context.Background(), learner, p, seed.Split(), mwu.RunConfig{MaxIter: 10000, Workers: 1})
				iters += float64(res.Iterations)
				acc += p.Accuracy(res.Choice)
				count++
			}
			b.ReportMetric(iters/float64(count), "update-cycles")
			b.ReportMetric(acc/float64(count), "accuracy-%")
		})
	}
}

// BenchmarkPoolPrecompute measures phase-1 throughput (safe mutations per
// second) at several worker counts — the embarrassingly-parallel claim.
func BenchmarkPoolPrecompute(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("lighttpd-1806-1807"))
	for _, workers := range []int{1, 4, 8} {
		b.Run("workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed := rng.New(uint64(0x9001 + i))
				pl := pool.Precompute(context.Background(), sc.Program, sc.Suite, pool.Config{Target: 100, Workers: workers}, seed)
				if pl.Size() == 0 {
					b.Fatal("empty pool")
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	// two decimal places, enough for the eta sweep labels
	n := int(f*100 + 0.5)
	return itoa(n/100) + "." + itoa((n%100)/10) + itoa(n%10)
}

// BenchmarkAblationRewardPolicy compares MWRepair's two reward policies:
// the literal Fig. 6 safety rule (which drives the learner toward the
// degenerate x=1 arm) and the default throughput rule (expected reward
// ∝ x·S(x), the unimodal Fig. 4b objective). Reported metric: the
// composition size the learner favours at the end.
func BenchmarkAblationRewardPolicy(b *testing.B) {
	sc := scenario.Generate(scenario.MustByName("libtiff-2005-12-14"))
	seed := rng.New(8)
	pl := sc.BuildPool(8, seed.Split())
	for _, pol := range []struct {
		name string
		p    core.RewardPolicy
	}{
		{"throughput", core.RewardThroughput},
		{"safety", core.RewardSafety},
	} {
		b.Run(pol.name, func(b *testing.B) {
			var arm float64
			count := 0
			for i := 0; i < b.N; i++ {
				res, err := core.RepairWithAlgorithm(context.Background(), "standard", pl, sc.Suite, rng.New(uint64(100+i)), core.Config{
					MaxIter: 300,
					Workers: 8,
					MaxX:    100,
					Reward:  pol.p,
				})
				if err != nil {
					b.Fatal(err)
				}
				arm += float64(res.LearnedArm)
				count++
			}
			b.ReportMetric(arm/float64(count), "learned-x")
		})
	}
}

// BenchmarkAblationConvergenceTolerance sweeps Standard's convergence
// tolerance (Sec. IV-C uses 1e-5) to show the iterations/accuracy
// trade-off the threshold encodes.
func BenchmarkAblationConvergenceTolerance(b *testing.B) {
	d := dataset.MustGet("random256")
	for _, tol := range []float64{1e-2, 1e-3, 1e-5} {
		b.Run("tol="+ftoa(tol*1000), func(b *testing.B) {
			var iters, acc float64
			count := 0
			for i := 0; i < b.N; i++ {
				seed := rng.New(uint64(0x701 + i))
				learner := mwu.NewStandard(mwu.StandardConfig{K: d.Size, Agents: 16, Tol: tol}, seed.Split())
				p := bandit.NewProblem(d.Dist)
				res := mwu.Run(context.Background(), learner, p, seed.Split(), mwu.RunConfig{MaxIter: 10000, Workers: 1})
				iters += float64(res.Iterations)
				acc += p.Accuracy(res.Choice)
				count++
			}
			b.ReportMetric(iters/float64(count), "update-cycles")
			b.ReportMetric(acc/float64(count), "accuracy-%")
		})
	}
}
