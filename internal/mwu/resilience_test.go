package mwu

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// TestFaultScheduleWorkerCountInvariant is the acceptance property for
// the injector: with a fixed seed, the fault schedule — and therefore the
// entire run, metrics and ledger included — is bit-identical at any
// worker count, raw and managed alike.
func TestFaultScheduleWorkerCountInvariant(t *testing.T) {
	for _, name := range Names {
		for _, managed := range []bool{false, true} {
			run := func(workers int) (RunResult, faults.Stats) {
				seed := rng.New(42)
				l := mustLearner(t, Config{Algorithm: name, K: 64}, seed.Split())
				p := bandit.NewProblem(dist.Random("r", 64, rng.New(7)))
				cfg := RunConfig{
					MaxIter: 150,
					Workers: workers,
					Faults:  faults.New(faults.Uniform(9, 0.15)),
				}
				if managed {
					cfg.Policies = faults.DefaultPolicies()
					cfg.StragglerCutoff = 300
				}
				res := Run(context.Background(), l, p, seed.Split(), cfg)
				return res, l.Metrics().Faults
			}
			res1, stats1 := run(1)
			res8, stats8 := run(8)
			if res1 != res8 {
				t.Errorf("%s managed=%v: Workers=1 %+v != Workers=8 %+v", name, managed, res1, res8)
			}
			if stats1 != stats8 {
				t.Errorf("%s managed=%v: fault ledger diverges: %+v vs %+v", name, managed, stats1, stats8)
			}
			if stats1.Injected == 0 {
				t.Errorf("%s managed=%v: no faults injected at rate 0.15", name, managed)
			}
		}
	}
}

// TestNoFaultTrajectoryUnchangedByPolicies: arming policies without an
// injector must not perturb the run — the jitter streams are only drawn
// from when a fault actually fires.
func TestNoFaultTrajectoryUnchangedByPolicies(t *testing.T) {
	run := func(pol faults.Policies) RunResult {
		seed := rng.New(4)
		l := mustLearner(t, Config{Algorithm: "standard", K: 32}, seed.Split())
		p := bandit.NewProblem(dist.Random("r", 32, rng.New(5)))
		return Run(context.Background(), l, p, seed.Split(), RunConfig{MaxIter: 200, Workers: 4, Policies: pol})
	}
	if a, b := run(faults.Policies{}), run(faults.DefaultPolicies()); a != b {
		t.Fatalf("policies without faults changed the run: %+v vs %+v", a, b)
	}
}

// TestStandardStallsWhereDistributedDegrades pins the Table I resilience
// claim at the driver level: under raw silent faults, the barriered
// Standard loses cycles to stalls while the autonomous Distributed
// converts the same faults into per-agent missing rewards and keeps
// iterating.
func TestStandardStallsWhereDistributedDegrades(t *testing.T) {
	run := func(name string) (RunResult, faults.Stats) {
		seed := rng.New(10)
		l := mustLearner(t, Config{Algorithm: name, K: 64}, seed.Split())
		p := bandit.NewProblem(dist.Random("r", 64, rng.New(11)))
		res := Run(context.Background(), l, p, seed.Split(), RunConfig{
			MaxIter: 100,
			Workers: 4,
			Faults:  faults.New(faults.Uniform(13, 0.1)),
		})
		return res, l.Metrics().Faults
	}
	stdRes, stdStats := run("standard")
	distRes, distStats := run("distributed")
	if stdStats.StalledCycles == 0 {
		t.Errorf("standard: no stalled cycles at fault rate 0.1 without a timeout")
	}
	if !stdRes.Degraded {
		t.Errorf("standard: run not marked degraded")
	}
	if distStats.StalledCycles != 0 {
		t.Errorf("distributed stalled %d cycles; autonomous learners must not stall", distStats.StalledCycles)
	}
	if distStats.Missing == 0 {
		t.Errorf("distributed: no missing rewards recorded")
	}
	if !distRes.Degraded {
		t.Errorf("distributed: run not marked degraded")
	}
}

// TestManagedPoliciesUnstallStandard: with Timeout+Retry armed, silent
// faults resolve (by retry or by going missing) instead of stalling the
// barrier.
func TestManagedPoliciesUnstallStandard(t *testing.T) {
	seed := rng.New(20)
	l := mustLearner(t, Config{Algorithm: "standard", K: 64}, seed.Split())
	p := bandit.NewProblem(dist.Random("r", 64, rng.New(21)))
	res := Run(context.Background(), l, p, seed.Split(), RunConfig{
		MaxIter:         100,
		Workers:         4,
		Faults:          faults.New(faults.Uniform(13, 0.1)),
		Policies:        faults.DefaultPolicies(),
		StragglerCutoff: 300,
	})
	st := l.Metrics().Faults
	if st.StalledCycles != 0 {
		t.Fatalf("managed standard still stalled %d cycles", st.StalledCycles)
	}
	if st.Retries == 0 {
		t.Fatalf("no retries recorded under default policies: %+v", st)
	}
	if res.Iterations != 100 && !res.Converged {
		t.Fatalf("run ended early without converging: %+v", res)
	}
}

// countGoroutines samples the goroutine count after letting any
// in-flight teardown finish.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestCancellationReturnsPartialWithoutLeaks: cancelling mid-run returns
// best-so-far with Cancelled set, and the persistent probe workers are
// all drained — no goroutine may outlive Run.
func TestCancellationReturnsPartialWithoutLeaks(t *testing.T) {
	before := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	seed := rng.New(30)
	l := mustLearner(t, Config{Algorithm: "standard", K: 64}, seed.Split())
	p := bandit.NewProblem(dist.Random("r", 64, rng.New(31)))
	iters := 0
	res := Run(ctx, l, p, seed.Split(), RunConfig{
		MaxIter: 100000,
		Workers: 8,
		OnIteration: func(iter int, _ Learner) bool {
			iters = iter
			if iter == 50 {
				cancel()
			}
			return false
		},
	})
	if !res.Cancelled || !res.Degraded {
		t.Fatalf("cancelled run not flagged: %+v", res)
	}
	if res.Iterations >= 100000 || iters < 50 {
		t.Fatalf("cancellation did not stop the loop promptly: %d iterations", res.Iterations)
	}
	if res.Choice < 0 || res.Choice >= 64 {
		t.Fatalf("no best-so-far choice in partial result: %+v", res)
	}
	for i := 0; i < 100; i++ {
		if countGoroutines() <= before {
			return
		}
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, countGoroutines())
}

// TestMessagePassingCancellation: a pre-cancelled message-passing run
// stops at the first iteration boundary, flags the partial result, and
// leaves no goroutine behind.
func TestMessagePassingCancellation(t *testing.T) {
	before := countGoroutines()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled from the start: first iteration check trips
	p := bandit.NewProblem(dist.Random("r", 8, rng.New(41)))
	res, err := RunMessagePassing(ctx, DistributedConfig{K: 8, PopSize: 200}, p, rng.New(40), 5000, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatalf("pre-cancelled run not flagged: %+v", res.RunResult)
	}
	for i := 0; i < 100; i++ {
		if countGoroutines() <= before {
			return
		}
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, countGoroutines())
}

// TestCrashedAgentAccounting: under crash faults the message-passing
// engine keeps running with the survivor population — popularity and
// plurality are over survivors, crashes and restarts are ledgered, and
// the survivor count is consistent with them.
func TestCrashedAgentAccounting(t *testing.T) {
	p := bandit.NewProblem(dist.Random("r", 8, rng.New(51)))
	inj := faults.New(faults.Config{Seed: 52, Crash: 0.01, RestartAfter: 10})
	// Plurality 0.99 keeps the run from converging in the first few
	// iterations, leaving time for crashed agents to serve their
	// downtime and restart.
	res, err := RunMessagePassing(context.Background(),
		DistributedConfig{K: 8, PopSize: 300, Plurality: 0.99}, p, rng.New(50), 120, inj, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Metrics.Faults
	if st.Crashes == 0 {
		t.Fatal("no crashes at rate 0.01 over 300 agents × 120 iterations")
	}
	if st.Restarts == 0 {
		t.Fatal("no restarts despite RestartAfter=10")
	}
	if !res.Degraded {
		t.Fatal("crashed run not marked degraded")
	}
	if res.Survivors <= 0 || res.Survivors > 300 {
		t.Fatalf("implausible survivor count %d", res.Survivors)
	}
	if got := int64(300-res.Survivors) + st.Restarts; got != st.Crashes {
		t.Fatalf("ledger inconsistent: crashes %d != down %d + restarts %d",
			st.Crashes, 300-res.Survivors, st.Restarts)
	}
	// Popularity is over survivors: LeaderProb counts survivors only.
	if res.LeaderProb < 0 || res.LeaderProb > 1 {
		t.Fatalf("leader probability %v outside [0,1]", res.LeaderProb)
	}
}

// TestCrashLedgerProperties draws random message-passing configurations
// (population, K, crash rate, RestartAfter, message-fault rate, fault
// seed) and checks the survivor ledger on each: every crash either left
// an agent down or was undone by a restart, the leader's share is a
// probability, a replay reproduces the result and the trace exactly, and a
// run ends with no survivors exactly when it ends dead, with no leader
// share.
func TestCrashLedgerProperties(t *testing.T) {
	gen := rng.New(0xC4A5)
	deadRuns := 0
	for i := 0; i < 40; i++ {
		pop, k := 10+gen.Intn(150), 2+gen.Intn(15)
		crash := 0.05 * gen.Float64()
		if gen.Intn(4) == 0 {
			crash = 0.2 + 0.8*gen.Float64() // heavy enough to wipe populations out
		}
		restart := 0
		if gen.Intn(3) > 0 {
			restart = 1 + gen.Intn(30)
		}
		msg := 0.4 * gen.Float64()
		fc := faults.Config{Seed: gen.Uint64(), Crash: crash, RestartAfter: restart,
			Drop: msg / 2, Delay: msg / 4, Dup: msg / 8}
		// Plurality 1.01 never converges, so heavy crash rates get the
		// whole budget to wipe the population out; a survivor set of one
		// meets any plurality up to 1.
		cfg := DistributedConfig{K: k, PopSize: pop, Plurality: []float64{0.3, 0.99, 1.01}[gen.Intn(3)]}
		name := fmt.Sprintf("draw %d (pop %d, k %d, crash %.3f, restart %d, msg %.3f, plurality %g)",
			i, pop, k, crash, restart, msg, cfg.Plurality)
		run := func() (MessagePassingResult, []byte) {
			var buf bytes.Buffer
			tr := obs.New(obs.NewJSONL(&buf), obs.WithRun("ledger"), obs.WithSample(7))
			p := bandit.NewProblem(dist.Random("r", k, rng.New(uint64(i)+1)))
			res, err := RunMessagePassing(context.Background(), cfg, p, rng.New(uint64(i)+500), 60, faults.New(fc), tr)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes()
		}
		res, trace := run()
		st := res.Metrics.Faults
		if got := int64(pop-res.Survivors) + st.Restarts; got != st.Crashes {
			t.Errorf("%s: crashes %d != down %d + restarts %d", name, st.Crashes, pop-res.Survivors, st.Restarts)
		}
		if !(res.LeaderProb >= 0 && res.LeaderProb <= 1) {
			t.Errorf("%s: leader share %v outside [0,1]", name, res.LeaderProb)
		}
		if again, traceAgain := run(); again != res || !bytes.Equal(traceAgain, trace) {
			t.Errorf("%s: replay diverges:\n%+v\n%+v", name, res, again)
		}
		lines := bytes.Split(bytes.TrimSpace(trace), []byte("\n"))
		var last obs.Event
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Type != obs.TypeRunEnd {
			t.Fatalf("%s: trace does not end in run_end: %s (%v)", name, lines[len(lines)-1], err)
		}
		if dead := last.Kind == "dead"; dead != (res.Survivors == 0) {
			t.Errorf("%s: run_end kind %q with %d survivors", name, last.Kind, res.Survivors)
		}
		if res.Survivors == 0 {
			deadRuns++
			if res.LeaderProb != 0 {
				t.Errorf("%s: dead run reports leader share %v", name, res.LeaderProb)
			}
		}
	}
	if deadRuns == 0 {
		t.Fatal("no draw lost its whole population, so the dead-run checks never ran")
	}
}

// TestMessagePassingFaultDeterminism: same seed, same fault config →
// identical result, crash schedule included.
func TestMessagePassingFaultDeterminism(t *testing.T) {
	run := func() (MessagePassingResult, error) {
		p := bandit.NewProblem(dist.Random("r", 8, rng.New(61)))
		inj := faults.New(faults.Uniform(62, 0.1))
		return RunMessagePassing(context.Background(), DistributedConfig{K: 8, PopSize: 150}, p, rng.New(60), 80, inj, nil)
	}
	a, errA := run()
	b, errB := run()
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if a.RunResult != b.RunResult || a.Survivors != b.Survivors || a.Metrics.Faults != b.Metrics.Faults {
		t.Fatalf("replays diverge:\n%+v %+v %+v\n%+v %+v %+v",
			a.RunResult, a.Survivors, a.Metrics.Faults,
			b.RunResult, b.Survivors, b.Metrics.Faults)
	}
	if a.Metrics.Faults.MsgDropped == 0 {
		t.Fatal("no message drops at rate 0.1")
	}
}

// TestMessagePassingFaultGolden pins the message-passing engine's full
// output under every fault kind it models (crashes, restarts, drops,
// delays, duplicates): the result, the survivor count, the metrics with
// the whole fault ledger, and the SHA-256 of the JSONL trace. Any change
// to the engine's draw order, fault handling or event order shows here.
func TestMessagePassingFaultGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.New(obs.NewJSONL(&buf), obs.WithRun("golden"), obs.WithSample(4))
	p := bandit.NewProblem(dist.Random("r", 8, rng.New(61)))
	inj := faults.New(faults.Uniform(62, 0.1))
	res, err := RunMessagePassing(context.Background(), DistributedConfig{K: 8, PopSize: 150, Plurality: 0.99}, p, rng.New(60), 80, inj, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want := MessagePassingResult{
		RunResult: RunResult{Iterations: 80, Choice: 0, LeaderProb: 0.7928571428571428,
			CPUIterations: 11527, Degraded: true},
		Metrics: Metrics{Iterations: 80, Probes: 11527, CPUIterations: 11527,
			MaxCongestion: 6, SumCongestion: 342, MessagesSent: 10532, MemoryFloats: 1,
			Faults: faults.Stats{Injected: 965, Crashes: 23, Restarts: 13,
				MsgDropped: 560, MsgDelayed: 278, MsgDuplicated: 127}},
		Survivors: 140,
	}
	if res != want {
		t.Errorf("result drifted:\n got %+v\nwant %+v", res, want)
	}
	const wantTrace = "a88209dfcc2b5bb64984725bc4e94b187d1fc832ee0a10708e83202423cf4f5e"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != wantTrace {
		t.Errorf("trace drifted: sha256 %s (%d bytes), want %s", got, buf.Len(), wantTrace)
	}
}
