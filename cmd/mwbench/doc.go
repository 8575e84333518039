// Command mwbench is the repository's benchmark. One invocation runs one
// workload in one process: it sets the workload up several times, runs an
// untraced measured pass, checks every output, and prints the end-to-end
// metrics. With tracing on it then replays the same jobs with spans
// around each layer and prints the per-layer metrics. BENCHMARK.json at the
// repository root lists the workloads, the metrics and the bounds.
//
// # Running it
//
// From the repository root:
//
//	bash cmd/mwbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
//	bash cmd/mwbench/run.sh --workload serve --seed 1 --trace 1 --spans serve-spans.jsonl
//	bash cmd/mwbench/run.sh -compare setA.txt setB.txt
//
// run.sh builds this directory, a module of its own that requires the
// repository's module through a replace directive, into .bench_build/ and
// runs it; the build cache and every store the benchmark writes stay
// there. `go run .` inside cmd/mwbench works too.
//
// Flags: -workload (corpus, rerun, tables or serve); -seed, from which the
// job seeds derive (job seed = 1000·seed + slot, so two seeds never share
// a job); -seconds, how long each pass measures on the machine the bounds
// were fixed on (a pass runs -seconds times the rate at which that machine
// got through the workload's seed slots, so its work depends on the flags
// alone and both sides of a comparison run the same jobs); -trace 1,
// which adds the traced pass; -spans, which also writes the traced pass's
// spans as JSON lines (name, job, id, parent, start_ns, end_ns).
//
// Every metric is printed as "<workload> <metric> <value> <unit>". Lines
// starting with "#" give the sample count and name every failed check
// ("# FAIL"). The last line is one JSON object with the keys correct,
// attempted, failed and metrics. Its metrics are one of BENCHMARK.json's
// two lists, as that file's format fixes them: end_to_end for an untraced
// run, per_layer for a traced one, whose end-to-end values (from its
// untraced pass) are in its text lines. A failed check makes correct
// false and the exit status 1.
//
// # Comparing two sets of runs
//
// -compare reads two files, each the concatenated output of any number of
// runs, and pairs the i-th sample of a (workload, metric) in one with the
// i-th in the other. For every pair it prints both sets' median and
// quartiles (computed as Python's statistics.quantiles does) and a
// verdict under BENCHMARK.json's bounds: REGRESSED when the second set's
// median is worse by more than the bound, UNRESOLVED when either set's
// spread (quartile distance over median) exceeds the bound and not every
// run of the second set beats every run of the first, gain when the second
// set wins at least nine of ten pairs and the medians differ by more than
// the first set's quartile distance, and same otherwise. It exits 1 when
// an end-to-end metric regressed. To compare a parent commit with a
// change, run both sides on the same seeds, alternating, and save each
// side's output in one file.
//
// # Workloads
//
// corpus: closed loop, one client. Each seed slot repairs the six rows
// lighttpd-1806-1807, libtiff-2005-12-14, Chart26, Math8, Math80 and
// adv-mild, with learner mwu.Names[(slot+row) mod 5], MaxIter 2000, MaxX
// the profile's Options and the profile's congestion λ. A job is
// BuildPoolStored then core.RepairWithAlgorithm, the CLI's first-contact
// repair, against one fresh store that the run shares and writes. The
// pool build takes about 45% of a traced job; in the probes, the cache
// key takes about as long as the lookup.
//
// rerun: the same jobs over a store that a cold priming pass of ten
// corpus slots wrote; the measured pass cycles over the primed jobs. Every
// lookup is a warm hit and no suite runs, so it prices the cache key, the
// lookup and WarmStart without suite cost: the cache and store layers
// used the other way round. The priming pass is not part of setup_s.
//
// tables: closed loop of Tables II–IV style convergence runs, mwu.Run on
// bandit.NewProblem with MaxIter 10000 and Workers 2: standard, optimistic
// and congestion on random16384 and unimodal16384, slate on random4096
// and unimodal4096, distributed on random256 and unimodal1024, the
// instances of internal/dataset's catalogue. No suite runs; the learner's
// draw and update are the cost, so this is the only workload a change to
// internal/wrs or internal/mwu alone shows on.
//
// serve: open loop. An in-process daemon, server.NewManager with one
// worker behind server.Handler on a loopback listener, receives
// POST /v1/jobs at Poisson arrivals drawn from rng.New(seed), 10 a second,
// 200 in 20 s (see arrivals); completion is seen through
// Manager.Get(id).Done(), and a job's latency starts at its arrival's due
// time. Each job repairs the loop program in serve.go (PoolTarget 24,
// Workers 2, MaxIter 2000), whose tests run hundreds of loop passes, so
// the lookup, which runs the suite, is over 80% of a probe's time. There
// is no store, so a job costs the same all run. At about 5 ms of
// execution a job the worker is busy about a twentieth of the time: far
// below saturation, so a slower host does not lengthen the queue much,
// and the arrivals that find the worker busy, about one in twenty, wait
// above the p90. The median and the p90 therefore price the daemon's
// admission and a job's execution; the queue shows in the tail beyond
// them, and in server.queue_share. Being an open loop, serve's jobs_per_s
// is the arrival rate until the daemon saturates; its latencies are what
// a slower daemon moves.
//
// Left out on purpose:
//
//   - The multi-edit rows Closure13 and mh-pair. Their searches are heavy
//     tailed (over ten seeds, one mh-pair job ran 2.2 s against a 102 ms
//     median job) and carried about 95% of the seed-to-seed variance of a
//     corpus run with them, whose throughput then spread 15% between
//     seeds.
//   - units, the gzip rows and Closure22: single jobs took 0.6 to 4.5 s on
//     units, gzip-2009-09-26 and Closure22 and over 24 s on
//     gzip-2009-08-16, against about 90 ms for a corpus job, so one job
//     would set the tail.
//   - The drifting family: its repair density is kept near zero on
//     purpose, so its searches run long.
//   - Distributed on unimodal256: it converges in 35 to 270 ms depending
//     on the seed, straddling the median job of a tables slot.
//   - Trace emission (internal/obs): no default user path traces.
//   - A serve rate sweep: it does not fit the time budget.
//   - serve at its first design's load, 5 jobs a second of a job with loop
//     counts sixteen times the present ones (about 90 ms): the worker was
//     busy nearly half the time, and a host running slower pushed it
//     towards saturation, where the queue waits grow faster than the
//     slowdown. Ten runs of the same code then spread job_p50_ms by up to
//     26% of its median and job_p90_ms by up to 56%, past the widest bound
//     the benchmark format allows. At a fifth busy (25 ms jobs, 8 a second)
//     and at a tenth (12 ms jobs, 8 a second) the share of jobs that waited
//     was close to a tenth, so whether the p90 job had waited changed from
//     seed to seed, and job_p90_ms spread 22% and 25%. The subject then
//     passed the 7 through two temporaries: its pools of 24 needed a
//     second batch of candidates in about 40% of jobs, which split job
//     cost into two classes either side of the median, and one pool in
//     2000 held no single-mutation repair, which sends a job to MaxIter.
//
// # End-to-end metrics
//
// Measured with tracing off, on every workload: setup_s, the median of
// nine timings of the set-up (scenario or distribution generation and
// store open; for rerun the reopening of the primed store; for serve
// admitting the subject and starting the daemon), each over back-to-back
// set-ups lasting at least 50 ms from a collected heap; jobs_per_s,
// completed jobs over the measured wall time; job_p50_ms and job_p90_ms,
// nearest-rank percentiles of job latency with failed or rejected jobs
// counted as +Inf (at -seconds 20 corpus runs 120 jobs, rerun 150, tables
// 110 and serve 200, so at least 11 lie above the p90); ok_frac, jobs
// with no error, rejection or failed check over jobs attempted;
// solved_frac, jobs whose repair was found and verified or whose learner
// converged; max_rss_mb, VmHWM after the untraced pass.
//
// Probe, cycle and suite counts per job are per-layer metrics. They are
// exact functions of the seed: between seeds, cycles per job spread 20%
// on these rows (54% with the multi-edit rows), far past any bound a
// timing could use, and a change that moves them on a fixed seed changes
// what the search does, not how fast.
//
// # Per-layer metrics and the end-to-end metric each should move
//
// Every workload runs a learner, so the learner's phases are absolute
// times. The other layers are not called by every workload; they are
// reported as shares of time and as counts, which read 0 where the
// workload never calls the layer. A job-level share is the layer's time
// over the enclosing jobs' time; a probe-level share is the layer's time
// over the time of the three probe layers together.
//
//	layer        metric                         moves        on
//	pool         pool.build_share               job_p50_ms   corpus, rerun, serve
//	pool         pool.candidates, pool.safe_rate (useful / attempts)
//	pool, store  pool.store_hit_share           1 on rerun; about 0.3 on corpus, whose later jobs reuse candidates of earlier ones
//	mwu          mwu.draw_us, mwu.update_us     jobs_per_s   tables
//	mwu          mwu.probe_phase_us             job_p50_ms   corpus, serve
//	mwu          mwu.driver_us, mwu.sampler_contention
//	mutation     mutation.apply_share           job_p50_ms   corpus, rerun
//	testsuite    testsuite.key_share            jobs_per_s   rerun most, corpus next, serve barely
//	testsuite    testsuite.lookup_share, hit_share, dedup_suppressed, shard_contention
//	testsuite    testsuite.warmstart_share      jobs_per_s   rerun; must stay flat as the store grows
//	testsuite    testsuite.warm_entries
//	lang         lang.suite_runs_per_job        job_p50_ms   serve; 0 on rerun
//	store        store.appends, store.dropped (must be 0), store.records
//	server       server.admit_share, queue_share, exec_share, rejected   job_p90_ms   serve
//	load gen     loadgen.late_share (a pass is invalid if its p90 lateness tops 5 ms)
//	tracing      trace.overhead_frac: traced job time over untraced, minus 1
//	search       cycles_per_job, probes_per_job, evals_per_job (0 on rerun and tables)
//
// Store open and close are timed as spans in the -spans file; store open
// is most of rerun's setup_s.
//
// # Tracing
//
// The traced pass records spans from the benchmark's own code, around its
// calls into the packages; no program code is instrumented. A span has a
// layer name, start, end, parent and job index, and stays in memory until
// the run ends. A layer's self time is its span's duration minus the union
// of its children's intervals; mwu.driver_us, the run loop's own time, is
// the self time of its cycle span. corpus and rerun drive mwu.Run
// themselves through a copy of core's repair oracle (ApplySample, then an
// extra ProgramKey that prices the cache key and counts toward the
// overhead, then Outcome, then the throughput reward) with their own
// runner, AttachStore and WarmStart; corpus gets a fresh store of its own,
// rerun reopens the primed one. The learner is wrapped by timing decorators, one type for
// plain learners and one for mwu.StreamSampler learners, that forward
// every optional interface mwu.Run looks for; tables uses them too. serve
// replays its schedule against the daemon, taking queue and execution
// times from the job status timestamps, then runs every job again in
// process the way corpus does.
//
// # Checks
//
// Every repaired patch is re-applied with mutation.Apply to the original
// program; it must rebuild the reported program and pass the whole suite
// on a fresh runner's EvalNoCache (on serve the patch comes from
// GET /v1/jobs/{id}/patch). rerun must run no suite, in the pool build or
// online, and match the cold job's iterations and probes. No store may
// drop a record. The traced pass must reproduce every job's iterations,
// probes, suite runs and cache hits; tables runs must also agree on the
// converged choice, and learner and problem on the probe count. core
// keeps whichever repairing probe of a cycle finishes first, so when a
// cycle finds several repairs the reported patch depends on scheduling:
// the traced pass records every repair of the final cycle, and the
// untraced patch (and on rerun the cold patch) must be among them.
//
// # Budget
//
// Probe and pool-build parallelism is 2, the CPU count of the machine the
// bounds were fixed on, and GOMAXPROCS keeps its default. serve's daemon
// runs one job at a time, and its HTTP client holds at most two
// connections. A run measures for -seconds (20 in BENCHMARK.json); a
// traced run replays as long again, serve's then reruns its jobs in
// process for a few seconds more, and rerun first primes for 10 to 14 s. On
// the machine below an untraced run took about 20 s on corpus, tables and
// serve and 32 s on rerun, and the first build with an empty cache 17 s;
// on the same kind of machine in a slower stretch, corpus and tables took
// 24 to 30 s and rerun 39 to 45 s.
//
// # Bounds and noise
//
// Every timing, setup_s included, may worsen by 25% before a change counts
// as a regression, the widest bound BENCHMARK.json's format allows;
// max_rss_mb may worsen by 15%, and ok_frac and solved_frac not at all. A
// bound only works when ten runs of the same code spread less than it, and
// on the machine below they do not at 10% or 20%. The variation is the
// host's, not the seeds':
//
//   - The same work repeated moves: corpus at one seed, five times in a
//     row, ran 5.4 to 7.0 jobs/s in a noisy stretch and, six times in a
//     row, 6.6 to 7.2 jobs/s in a quiet one.
//   - The drift is slower than a run: twelve corpus jobs repeated for 100 s
//     in one process took 1.4 to 2.5 s a round, wandering over tens of
//     seconds, while a SHA-256 loop timed between the rounds spread 2%.
//     Memory-heavy work moves with the load other tenants put on the
//     host's memory; medians within a run and longer runs do not remove
//     that, and GOGC=400 made corpus faster but no steadier.
//   - Whole stretches move together: two sets of ten seeds at -seconds 25,
//     made one after the other, had the timing medians of corpus, tables
//     and serve 12 to 16% apart, and the first spread 26% on rerun's
//     jobs_per_s. In the first set of the baseline below, corpus runs fell
//     into a fast and a slow group 20% apart, which spread its jobs_per_s
//     by 18% and its job_p50_ms by 23%; in the second set no timing spread
//     more than 11%. The same kind of machine ran corpus at 4.6 jobs/s in
//     an earlier baseline and at 7.2 in this one.
//   - The seeds add little: resampling one run's corpus jobs within their
//     row and learner spread jobs_per_s by 3% and job_p90_ms by 6%.
//
// So with these bounds a 20% slowdown reads as the same, and a stretch as
// noisy as the third item above can leave a pair over its bound; -compare
// then reports it as unresolved. At bounds of 10% (20% for setup_s), 9 of
// the 16 timing pairs of the baseline below spread past their bound in
// one of the sets.
//
// # Baseline
//
// baseline/set1.txt and baseline/set2.txt are two sets of untraced runs
// at -seconds 20, seeds 1 to 10 and 11 to 20 of every workload, made one
// after the other; baseline/traced.txt is one traced run of each workload
// at seed 1. The machine was a KVM guest with 2 vCPUs of a 2.1 GHz Intel
// Xeon (Sapphire Rapids), 8 GiB of memory, Linux and Go 1.24.0. Medians
// of set 1 / set 2, with the spread of each set in brackets:
//
//	workload  setup_s (ms)           jobs_per_s           job_p50_ms           job_p90_ms           max_rss_mb
//	corpus    14.3/14.0 (.35/.10)    7.21/7.46 (.18/.06)  97.4/94.5 (.23/.08)  327/332 (.13/.11)    74.9/74.8 (.05/.05)
//	rerun     37.7/35.1 (.16/.19)    8.21/8.34 (.11/.04)  85.0/84.5 (.12/.05)  292/290 (.16/.05)    79.5/80.7 (.03/.04)
//	tables    0.586/0.554 (.13/.14)  5.87/6.10 (.04/.06)  78.6/73.2 (.09/.06)  527/510 (.04/.08)    16.3/16.3 (.04/.04)
//	serve     0.293/0.257 (.18/.17)  10.0/10.0 (.00/.01)  6.22/5.97 (.10/.08)  8.93/8.59 (.16/.08)  16.3/16.2 (.01/.02)
//
// ok_frac and solved_frac read 1 on every run. `-compare baseline/set1.txt
// baseline/set2.txt` finds every pair the same except corpus's setup_s,
// unresolved because its first set spread 35%; the medians are at most
// 12% apart (serve's setup_s), 7% for the other timings.
package main
