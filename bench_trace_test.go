package repro

// Tracing-overhead benchmark: BenchmarkRun measures the full mwu.Run
// online loop three ways — no tracer at all, a tracer over a NopSink
// (what every emission site pays when tracing is compiled in but off),
// and a live JSONL tracer writing to an in-memory buffer. The no-op
// variant is the internal/obs contract under test: it must stay within
// ~5% of the untraced baseline, which is what makes threading the tracer
// unconditionally through the hot loop acceptable. The jsonl variant
// prices the observability itself (encoding + buffered writes), not a
// regression gate.

import (
	"context"
	"io"
	"testing"

	"repro/internal/bandit"
	"repro/internal/dataset"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/rng"
)

// discardJSONL builds a live tracer whose events are encoded and then
// thrown away, isolating tracing cost from filesystem cost.
func discardJSONL(sample int) *obs.Tracer {
	return obs.New(obs.NewJSONL(io.Discard), obs.WithRun("bench"), obs.WithSample(sample))
}

func benchRunTraced(b *testing.B, tr *obs.Tracer) {
	b.Helper()
	d := dataset.MustGet("random256")
	var iters float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed := rng.New(uint64(0x7ACE + i))
		learner, err := mwu.NewLearner(mwu.Config{Algorithm: "standard", K: d.Size}, seed.Split())
		if err != nil {
			b.Fatal(err)
		}
		p := bandit.NewProblem(d.Dist)
		res := mwu.Run(context.Background(), learner, p, seed.Split(),
			mwu.RunConfig{MaxIter: 2000, Workers: 1, Trace: tr})
		iters += float64(res.Iterations)
	}
	b.ReportMetric(iters/float64(b.N), "update-cycles")
}

// BenchmarkRun is the BENCH_PR5.json tracing-overhead trio.
func BenchmarkRun(b *testing.B) {
	b.Run("baseline", func(b *testing.B) { benchRunTraced(b, nil) })
	b.Run("nop", func(b *testing.B) { benchRunTraced(b, obs.New(obs.NopSink{})) })
	b.Run("jsonl", func(b *testing.B) { benchRunTraced(b, discardJSONL(1)) })
	b.Run("jsonl-sample100", func(b *testing.B) { benchRunTraced(b, discardJSONL(100)) })
}
