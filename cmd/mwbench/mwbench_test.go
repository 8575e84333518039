package main

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/bandit"
	"repro/internal/dataset"
	"repro/internal/mwu"
	"repro/internal/rng"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 3}, {60, 3}, {61, 4}, {90, 5}, {100, 5}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// A failed job is +Inf: it sits above every latency limit.
	withFail := []float64{1, 2, 3, inf}
	if got := percentile(withFail, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 with a failed job = %v, want +Inf", got)
	}
	if got := percentile(withFail, 50); got != 2 {
		t.Errorf("p50 with a failed job = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles and median to Python's
// statistics.quantiles(xs, n=4) and statistics.median on the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, q3, med float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25, 3.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{7, 3}, 2, 8, 5},
		{[]float64{2, 8, 4}, 2, 8, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.med {
			t.Errorf("%v: quartiles %v %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.med)
		}
	}
}

func TestSelfTimesOverlappingAndNestedChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 30},    // 1: child
		{parent: 0, start: 20, end: 50},    // 2: overlaps 1: union with 1 is [10, 50)
		{parent: 0, start: 90, end: 120},   // 3: runs past the root: clipped to [90, 100)
		{parent: 2, start: 25, end: 35},    // 4: nested in 2
		{parent: -1, start: 200, end: 210}, // 5: root without children
		{parent: 5, start: 203, end: 203},  // 6: empty child covers nothing
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 10, 0}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestTimedLearnerForwarding checks the decorators expose exactly the
// optional interfaces the wrapped learner has, so mwu.Run takes the same
// path, and that a timed run reproduces an untimed one.
func TestTimedLearnerForwarding(t *testing.T) {
	d := buildDistributions()["random256"]
	for _, alg := range mwu.Names {
		base := func() mwu.Learner {
			l, err := mwu.NewLearner(mwu.Config{Algorithm: alg, K: 256}, rng.New(7))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		plain := base()
		tr := newTracer()
		timed, tl := timeLearner(base(), tr, 0, -1)
		_, wantStream := plain.(mwu.StreamSampler)
		_, gotStream := timed.(mwu.StreamSampler)
		if gotStream != wantStream {
			t.Errorf("%s: StreamSampler forwarded %v, want %v", alg, gotStream, wantStream)
		}
		a, wantAuto := plain.(interface{ Autonomous() bool })
		if got := tl.Autonomous(); got != (wantAuto && a.Autonomous()) {
			t.Errorf("%s: Autonomous %v", alg, got)
		}

		runOnce := func(l mwu.Learner) mwu.RunResult {
			return mwu.Run(context.Background(), l, bandit.NewProblem(d), rng.New(9),
				mwu.RunConfig{MaxIter: 200, Workers: probeWorkers})
		}
		want := runOnce(plain)
		got := runOnce(timed)
		tl.finish()
		if got.Iterations != want.Iterations || got.Choice != want.Choice || got.Converged != want.Converged {
			t.Errorf("%s: timed run %+v, untimed %+v", alg, got, want)
		}
		cycles := 0
		for _, s := range tr.snapshot() {
			if s.end < s.start {
				t.Fatalf("%s: span %s left open", alg, layerNames[s.layer])
			}
			if s.layer == layerCycle {
				cycles++
			}
		}
		if cycles != got.Iterations {
			t.Errorf("%s: %d cycle spans for %d iterations", alg, cycles, got.Iterations)
		}
	}
}

// TestArrivalsArePoisson checks serve's schedule: sorted, inside its
// window, fixed by the seed, and with gaps as uneven as a Poisson
// process's (a coefficient of variation near 1, where even spacing has 0).
func TestArrivalsArePoisson(t *testing.T) {
	const n = 4000
	a := arrivals(7, n)
	window := time.Duration(n / serveRate * float64(time.Second))
	if !slices.IsSorted(a) || a[0] < 0 || a[n-1] >= window {
		t.Fatalf("arrivals not sorted inside [0, %v): first %v, last %v", window, a[0], a[n-1])
	}
	if !slices.Equal(a, arrivals(7, n)) || slices.Equal(a, arrivals(8, n)) {
		t.Error("the schedule must follow the seed")
	}
	var sum, sq float64
	prev := time.Duration(0)
	for _, x := range a {
		gap := (x - prev).Seconds()
		sum += gap
		sq += gap * gap
		prev = x
	}
	mean := sum / n
	if cv := math.Sqrt(sq/n-mean*mean) / mean; cv < 0.9 || cv > 1.1 {
		t.Errorf("gap coefficient of variation %.3f, want about 1", cv)
	}
	if rate := 1 / mean; math.Abs(rate-serveRate) > 0.01*serveRate {
		t.Errorf("mean rate %.3f/s, want %v/s", rate, serveRate)
	}
}

func TestDistributionsMatchCatalogue(t *testing.T) {
	for name, d := range buildDistributions() {
		if want := dataset.MustGet(name).Dist.Values(); !slices.Equal(d.Values(), want) {
			t.Errorf("%s differs from internal/dataset's instance", name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := 0.1
	lower := definedMetric{Name: "job_p50_ms", Better: "lower", Bound: &bound}
	higher := definedMetric{Name: "jobs_per_s", Better: "higher", Bound: &bound}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		m    definedMetric
		want string
	}{
		{"same code", parent, scale(parent, 1.01), lower, "same"},
		{"slower", parent, scale(parent, 1.3), lower, "REGRESSED"},
		{"faster", parent, scale(parent, 0.8), lower, "gain"},
		{"fewer jobs per second", parent, scale(parent, 0.8), higher, "REGRESSED"},
		{"noisy", []float64{50, 150, 100, 60, 140, 100}, []float64{55, 145, 100, 65, 135, 100}, lower, "UNRESOLVED"},
	} {
		if got := compareSamples(c.a, c.b, c.m).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metric names and units,
// and the workload names, equal to those BENCHMARK.json lists.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	def, err := loadDefinition(filepath.Join("..", "..", benchmarkFile))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []definedMetric, printed []metric, bounded bool) {
		if len(listed) != len(printed) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, mwbench prints %d", kind, len(listed), len(printed))
		}
		for i, m := range listed {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, mwbench prints %s %s", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s %s: bound present %v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", def.EndToEnd, e2eMetrics, true)
	check("per_layer", def.PerLayer, layerMetrics, false)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, mwbench has %v", names, workloads)
	}
}

// TestSmokeEveryWorkload runs each workload's job list cut to one slot
// (serve: one arrival) by a zero-second pass, untraced then traced, and
// expects every check to pass and every metric to be printable.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			b, _ := newBench(name)
			o := runOpts{seed: 1, seconds: 0, dir: t.TempDir()}
			out, err := b.run(o)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			counts, err := b.traced(o, tr, out)
			if cerr := b.close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(out.jobs) == 0 || len(out.problems) > 0 {
				t.Fatalf("%d jobs, failed checks: %v", len(out.jobs), out.problems)
			}
			e2e := e2eValues(out, 1)
			if e2e["ok_frac"] != 1 || e2e["jobs_per_s"] <= 0 || e2e["job_p50_ms"] <= 0 {
				t.Errorf("end-to-end metrics %v", e2e)
			}
			layers := spanValues(tr.snapshot(), out.jobs)
			for k := range counts {
				if !slices.ContainsFunc(layerMetrics, func(m metric) bool { return m.name == k }) {
					t.Errorf("count %q is not a per-layer metric", k)
				}
			}
			if layers["trace.overhead_frac"] <= -1 {
				t.Errorf("no traced job spans: %v", layers)
			}
		})
	}
}
