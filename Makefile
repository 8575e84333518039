# Tier-1 verification plus the race detector and probe-path benchmarks.
#
#   make ci          vet + build + race-enabled tests + bench smoke + chaos smoke + trace smoke + daemon smoke (the full gate)
#   make test        plain tier-1 tests (ROADMAP.md's definition)
#   make race        go test -race ./...
#   make chaos       fault-injection smoke under -race + E11 JSON schema check
#   make trace       mwrepair -trace smoke + JSONL schema check
#   make daemon-smoke mwrepaird process-level smoke: job over HTTP, CLI byte-identity, SIGTERM drain
#   make store       persistent-store gate: corruption recovery + warm-start determinism under -race, write-behind overhead bound
#   make psample     concurrent-sampling gate: stream/alias determinism under -race + BENCH_PR9.json trio + 4x draw-throughput check
#   make mwbench-check vet + short tests of the cmd/mwbench benchmark module (root ./... never reaches it)
#   make fuzz-smoke  every native fuzz target for 5 s each, beyond its seed corpus
#   make scenarios   scenario-family gate: multi-hunk/drifting/adversarial calibration + drift determinism under -race + E12 JSON schema check
#   make bench-psample regenerate BENCH_PR9.json (BenchmarkParallelSample trio at -benchtime 1s)
#   make bench       sampling + tracing-overhead + store benchmarks at fixed -benchtime -> $(BENCH_OUT)
#   make bench-smoke sampling benchmarks at -benchtime=100x (fast CI gate)
#   make bench-probe probe-path benchmarks (cache throughput, dedup, pool)
#   make bench-all   every benchmark once (smoke)

GO ?= go

# Where `make bench` writes its JSON records. Override per PR so benchmark
# history accumulates instead of overwriting: make bench BENCH_OUT=BENCH_PR8.json
BENCH_OUT ?= BENCH_PR7.json

# The perf-trajectory benchmarks frozen into BENCH_PR2.json: the
# BenchmarkSample primitive comparison (naive scan vs Fenwick),
# the end-to-end learner cycle, the wrs draw/update microbenchmarks, and the
# PR-1 cache hot-path benchmarks (one-lock runner vs the seed's mutex map, dedup).
SAMPLING_BENCH = BenchmarkSample|BenchmarkSampleUpdateCycle|BenchmarkWRS|BenchmarkRunnerCacheHitThroughput|BenchmarkRunnerDuplicateProbeThroughput|BenchmarkAblationDedupCache

.PHONY: ci vet build test race chaos trace daemon-smoke store psample mwbench-check fuzz-smoke scenarios bench-psample bench bench-smoke bench-probe bench-all

ci: vet build race bench-smoke chaos trace daemon-smoke store psample mwbench-check fuzz-smoke scenarios

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos smoke: the resilience test set (fault determinism, cancellation
# leak checks, crash survival) under the race detector, then a tiny E11
# run whose -json export must decode against the documented schema and
# whose JSONL trace (crash/restart events included) must pass the trace
# schema check.
# go test -run passes silently when nothing matches, so every package
# listed must hold at least one test the pattern selects.
chaos:
	$(GO) test -race -run 'Fault|Cancel|Resilience|Crash|Chaos' ./internal/faults ./internal/mwu ./internal/pool ./internal/core ./internal/experiments ./internal/testsuite
	$(GO) run ./cmd/experiments -resilience -seeds 1 -maxiter 60 -faultrates 0,0.1 -datasets random64 -json /tmp/e11-smoke.json \
		-trace /tmp/e11-smoke.jsonl -trace-sample 10 >/dev/null
	$(GO) run ./cmd/benchjson -validate-resilience /tmp/e11-smoke.json
	$(GO) run ./cmd/benchjson -validate-trace /tmp/e11-smoke.jsonl

# Trace smoke: one end-to-end mwrepair run with fault injection and the
# JSONL event stream on, then a schema check of the emitted trace (known
# event types, dense sequence numbers). Guards the obs wiring the same way
# chaos guards the E11 export. The run saves its pool; a second run loads
# it and must print the identical stdout from the phase 2 line on, wall
# times masked (a reloaded pool reproduces the run that saved it, and no
# printed count depends on goroutine scheduling). A run whose phase 2
# fails (here: the loaded pool belongs to another scenario's program)
# must still have saved its phase-1 pool.
trace:
	$(GO) run ./cmd/mwrepair -scenario lighttpd-1806-1807 -maxiter 500 -workers 4 -seed 3 \
		-faultrate 0.05 -managed -trace /tmp/trace-smoke.jsonl -trace-sample 5 \
		-savepool /tmp/trace-smoke.pool >/tmp/trace-smoke.out
	$(GO) run ./cmd/benchjson -validate-trace /tmp/trace-smoke.jsonl
	$(GO) run ./cmd/mwrepair -scenario lighttpd-1806-1807 -maxiter 500 -workers 4 -seed 3 \
		-faultrate 0.05 -managed -loadpool /tmp/trace-smoke.pool >/tmp/trace-reload.out
	sed -n '/^phase 2/,$$p' /tmp/trace-smoke.out | sed -E 's/[0-9][0-9.hm]*s\b/<dur>/g' >/tmp/trace-smoke.phase2
	sed -n '/^phase 2/,$$p' /tmp/trace-reload.out | sed -E 's/[0-9][0-9.hm]*s\b/<dur>/g' >/tmp/trace-reload.phase2
	grep -q '^  patch (' /tmp/trace-smoke.phase2
	cmp /tmp/trace-smoke.phase2 /tmp/trace-reload.phase2
	rm -f /tmp/trace-fail.pool
	! $(GO) run ./cmd/mwrepair -scenario units -loadpool /tmp/trace-smoke.pool -savepool /tmp/trace-fail.pool >/dev/null 2>&1
	test -s /tmp/trace-fail.pool

# Daemon smoke: build the real mwrepaird + mwrepair binaries, start the
# daemon on an ephemeral port, submit a scenario job over HTTP, poll it to
# completion, fetch the patch, byte-compare the daemon's per-job trace
# against the one-shot CLI's, then SIGTERM mid-job and assert a drained
# exit 0 with schema-valid flushed traces. Gated behind DAEMON_SMOKE=1 so
# plain `go test ./...` stays fork-free.
daemon-smoke:
	DAEMON_SMOKE=1 $(GO) test -count=1 -run TestDaemonSmoke ./internal/server

# Store gate: the corruption-recovery set (torn tail, bit flips,
# quarantine, audit rebuild, a crash inside Compact), legacy stores and the
# warm-start determinism e2e tests under the race detector, then the
# write-behind overhead bound (cold store ≤ 1.05× no store on the probe
# hot path, STORE_BENCH-gated).
store:
	$(GO) test -race -run 'Corrupt|Quarantine|Truncat|Duplicate|Audit|Torn|Compact|WarmStart|StoreShared|Legacy' \
		./internal/store ./internal/testsuite ./internal/core ./internal/server
	STORE_BENCH=1 $(GO) test -count=1 -run TestProbeWriteBehindOverheadGate .

# Concurrent-sampling gate: the stream/alias determinism suite (alias
# build against its closed forms, per-stream draw determinism under
# contention, the byte-identical-trace check across worker counts) under
# the race detector, then the committed BENCH_PR9.json record's schema +
# 4x draw-throughput check.
psample:
	$(GO) test -race -run 'AliasBuild|ConcurrentAlias|LockedFenwick|AliasReload|TraceByteIdentical|StreamRun|StreamLearners|StreamSample' \
		./internal/wrs ./internal/mwu
	$(GO) run ./cmd/benchjson -validate BENCH_PR9.json

# The repo benchmark (cmd/mwbench) is a module of its own, so the root
# vet/build/test targets never compile it; this keeps API changes in the
# packages it imports from breaking it unnoticed. -short skips its
# every-workload smoke run.
mwbench-check:
	cd cmd/mwbench && $(GO) vet ./... && $(GO) test -short ./...

# Fuzz smoke: each native fuzz target explores past its seed corpus for
# 5 s. go test -fuzz takes one target per invocation, hence one line
# each. A failure leaves its input under the package's testdata/fuzz/
# for plain go test to replay.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReload$$' -fuzztime 5s ./internal/wrs
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverPackDir$$' -fuzztime 5s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzParseRoundTrip$$' -fuzztime 5s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzRunContained$$' -fuzztime 5s ./internal/lang
	$(GO) test -run '^$$' -fuzz '^FuzzSubmitSpec$$' -fuzztime 5s ./internal/server

# Scenario-family gate: the multi-hunk/drifting/adversarial calibration
# and validation suites (proper-subset proofs, drift-schedule invariants,
# stale-fingerprint purge, congestion-cost invariance, the byte-identical
# drifting-trace check across worker counts) under the race detector,
# then a one-seed E12 run whose -json export must pass the coverage
# schema check (all three families, all five learners, drift applied).
scenarios:
	$(GO) test -race -run 'Family|MultiHunk|Drift|Adversarial|SetSuite|ProperSubset|SubsetRepairable|FromSourceReject|StaleFingerprint|CongestionCost|Families' \
		./internal/scenario ./internal/testsuite ./internal/core ./internal/mwu ./internal/baseline ./internal/experiments
	$(GO) run ./cmd/experiments -families -seeds 1 -maxiter 400 -json /tmp/e12-smoke.json >/dev/null
	$(GO) run ./cmd/benchjson -validate-families /tmp/e12-smoke.json

# Regenerates the committed BENCH_PR9.json: the BenchmarkParallelSample
# trio (mutex-guarded Fenwick vs lock-free frozen alias at k=16384 with 8
# streams, plus the sequential table rebuild) at a fixed -benchtime.
bench-psample:
	$(GO) test -run '^$$' -bench BenchmarkParallelSample -benchmem -benchtime 1s ./internal/wrs \
		| $(GO) run ./cmd/benchjson -o BENCH_PR9.json

# The probe-evaluation hot path: the runner's cache-hit throughput vs the
# seed's single-mutex map, singleflight dedup, cached-vs-uncached ablation,
# and phase-1 pool precompute scaling. -benchtime 1x keeps it a smoke
# check; raise it for real measurements.
bench-probe:
	$(GO) test -run '^$$' -bench 'BenchmarkRunnerCacheHitThroughput|BenchmarkRunnerDuplicateProbeThroughput|BenchmarkAblationDedupCache|BenchmarkPoolPrecompute' -benchtime 1x .

# Fixed -benchtime so $(BENCH_OUT) is comparable across commits; benchjson
# echoes the raw go test output to stderr and writes {name, ns/op, allocs/op}
# records for each result. BenchmarkRun$ (anchored — BenchmarkRunner* are
# separate probe-path benchmarks) is the tracing-overhead trio.
bench:
	$(GO) test -run '^$$' -bench '$(SAMPLING_BENCH)|BenchmarkRun$$|BenchmarkProbeWriteBehind' -benchmem -benchtime 1s . ./internal/wrs \
		| $(GO) run ./cmd/benchjson -o $(BENCH_OUT)

bench-smoke:
	$(GO) test -run '^$$' -bench '$(SAMPLING_BENCH)' -benchmem -benchtime 100x . ./internal/wrs

bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
