package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number: its name as BENCHMARK.json lists it and
// its unit.
type metric struct {
	name, unit string
}

// e2eMetrics are the end-to-end metrics, measured with tracing off. Their
// order, names and units match BENCHMARK.json's end_to_end list.
var e2eMetrics = []metric{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"ok_frac", "ratio"},
	{"solved_frac", "ratio"},
	{"max_rss_mb", "MiB"},
}

// layerMetrics are the per-layer metrics of the traced pass, in
// BENCHMARK.json's per_layer order. Every workload runs a learner, so the
// learner's phases are absolute times. The other layers are not called by
// every workload, and are reported as shares of time and as counts, which
// read 0 where a workload never calls the layer.
var layerMetrics = []metric{
	{"pool.build_share", "ratio"},
	{"pool.candidates", "count"},
	{"pool.safe_rate", "ratio"},
	{"pool.store_hit_share", "ratio"},
	{"mwu.draw_us", "us"},
	{"mwu.update_us", "us"},
	{"mwu.probe_phase_us", "us"},
	{"mwu.driver_us", "us"},
	{"mwu.sampler_contention", "count"},
	{"mutation.apply_share", "ratio"},
	{"testsuite.key_share", "ratio"},
	{"testsuite.lookup_share", "ratio"},
	{"testsuite.hit_share", "ratio"},
	{"testsuite.dedup_suppressed", "count"},
	{"testsuite.shard_contention", "count"},
	{"testsuite.warmstart_share", "ratio"},
	{"testsuite.warm_entries", "count"},
	{"lang.suite_runs_per_job", "count"},
	{"store.appends", "count"},
	{"store.dropped", "count"},
	{"store.records", "count"},
	{"server.admit_share", "ratio"},
	{"server.queue_share", "ratio"},
	{"server.exec_share", "ratio"},
	{"server.rejected", "count"},
	{"loadgen.late_share", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"cycles_per_job", "count"},
	{"probes_per_job", "count"},
	{"evals_per_job", "count"},
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order.
var workloads = []string{"corpus", "rerun", "tables", "serve"}

func newBench(name string) (bench, bool) {
	switch name {
	case "corpus":
		return &repairBench{}, true
	case "rerun":
		return &repairBench{rerun: true}, true
	case "tables":
		return &tablesBench{}, true
	case "serve":
		return &serveBench{}, true
	}
	return nil, false
}

// bench is one workload.
type bench interface {
	// run sets the workload up setupReps times, then runs the untraced
	// measured pass and checks its outputs. An error means the
	// environment failed (a store or listener could not be opened); a
	// failed check is recorded in the outcome.
	run(o runOpts) (*outcome, error)
	// traced replays the untraced pass's jobs with spans, recording a
	// failed check wherever it does not reproduce them, and returns the
	// per-layer counts it measured.
	traced(o runOpts, tr *tracer, out *outcome) (map[string]float64, error)
	// close releases what set-up opened.
	close() error
}

const (
	// setupReps is how many times each run times its workload's set-up;
	// setup_s is the median.
	setupReps = 9
	// minSetupRep is the shortest stretch one timing of the set-up covers.
	// A shorter set-up is repeated back to back within the timing and its
	// mean taken: a set-up of a millisecond or so otherwise moved by 30%
	// between sets of runs of the same code, with the page faults of its
	// fresh memory and the collections that happened to land in it.
	minSetupRep = 50 * time.Millisecond
	// seedStride separates the job seeds of consecutive -seed values: a
	// run uses fewer slots than this, so two -seed values never share a
	// job.
	seedStride = 1000
)

// jobSeed is the seed of the job in a slot (serve: arrival).
func jobSeed(seed uint64, slot int) uint64 { return seed*seedStride + uint64(slot) }

// runOpts are one invocation's settings.
type runOpts struct {
	seed    uint64
	seconds float64
	// dir holds the stores the run creates.
	dir string
}

// slots is how many seed slots (serve: arrivals) a pass runs, at least
// one: seconds times perSecond, the rate at which the workload got through
// slots on the machine the bounds were fixed on. A pass thus measures
// about -seconds there, and a run's work depends on its flags alone: both
// sides of a comparison run the same jobs, and memory and counts do not
// move with the machine's speed.
func (o runOpts) slots(perSecond float64) int {
	return max(1, int(o.seconds*perSecond+0.5))
}

// jobStat is one job of the untraced pass.
type jobStat struct {
	latency float64 // ms; +Inf for a job that failed or was rejected
	ok      bool    // no error, no rejection, no failed check
	solved  bool    // a verified repair, or a converged learner
}

// outcome is what a workload's passes measured and checked.
type outcome struct {
	setup    []time.Duration
	wall     time.Duration
	jobs     []jobStat
	problems []string
}

func (o *outcome) failf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// timeSetUp times setUp setupReps times into o.setup, each time over
// back-to-back set-ups lasting at least minSetupRep and starting from a
// collected heap. tearDown undoes a set-up between two of them, untimed;
// the last set-up stays for the run.
func (o *outcome) timeSetUp(setUp, tearDown func() error) error {
	first := true
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		var timed time.Duration
		for n := 1; ; n++ {
			if !first {
				if err := tearDown(); err != nil {
					return err
				}
			}
			first = false
			t0 := time.Now()
			if err := setUp(); err != nil {
				return err
			}
			if timed += time.Since(t0); timed >= minSetupRep {
				o.setup = append(o.setup, timed/time.Duration(n))
				break
			}
		}
	}
	return nil
}

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// e2eValues computes the end-to-end metrics of the untraced pass.
func e2eValues(out *outcome, rssMiB float64) map[string]float64 {
	setup := make([]float64, len(out.setup))
	for i, d := range out.setup {
		setup[i] = d.Seconds()
	}
	var lat []float64
	var ok, solved float64
	for _, j := range out.jobs {
		lat = append(lat, j.latency)
		if j.ok {
			ok++
		}
		if j.solved {
			solved++
		}
	}
	n := float64(len(out.jobs))
	return map[string]float64{
		"setup_s":     median(setup),
		"jobs_per_s":  ratio(ok, out.wall.Seconds()),
		"job_p50_ms":  percentile(lat, 50),
		"job_p90_ms":  percentile(lat, 90),
		"ok_frac":     ratio(ok, n),
		"solved_frac": ratio(solved, n),
		"max_rss_mb":  rssMiB,
	}
}

// spanValues computes the per-layer times of the traced pass from its
// spans, and the tracing overhead against the untraced pass's jobs.
//
// A job-level layer's share is its spans' total time over the total time
// of the spans enclosing them (the jobs). A probe-level layer's share is
// its time over the time of all three probe layers, since two probe
// workers run under one probe phase at once.
func spanValues(spans []span, untraced []jobStat) map[string]float64 {
	self := selfTimes(spans)
	var total, count, enclosing [numLayers]float64
	var loop, cycles, tracedNs, untracedMs float64
	for i, s := range spans {
		total[s.layer] += float64(s.end - s.start)
		count[s.layer]++
		if s.parent >= 0 {
			p := spans[s.parent]
			enclosing[s.layer] += float64(p.end - p.start)
		}
		switch {
		case s.layer == layerCycle:
			loop += float64(self[i])
			cycles++
		case s.layer == layerJob && !math.IsInf(untraced[s.job].latency, 0):
			tracedNs += float64(s.end - s.start)
			untracedMs += untraced[s.job].latency
		}
	}
	us := func(l layer) float64 { return ratio(total[l], count[l]) / 1e3 }
	share := func(l layer) float64 { return ratio(total[l], enclosing[l]) }
	probe := total[layerApply] + total[layerKey] + total[layerLookup]
	return map[string]float64{
		"pool.build_share":          share(layerPoolBuild),
		"mwu.draw_us":               us(layerDraw),
		"mwu.update_us":             us(layerUpdate),
		"mwu.probe_phase_us":        us(layerProbePhase),
		"mwu.driver_us":             ratio(loop, cycles) / 1e3,
		"mutation.apply_share":      ratio(total[layerApply], probe),
		"testsuite.key_share":       ratio(total[layerKey], probe),
		"testsuite.lookup_share":    ratio(total[layerLookup], probe),
		"testsuite.warmstart_share": share(layerWarmStart),
		"server.admit_share":        share(layerAdmit),
		"server.queue_share":        share(layerQueue),
		"server.exec_share":         share(layerExec),
		"loadgen.late_share":        share(layerLate),
		"trace.overhead_frac":       ratio(tracedNs/1e6, untracedMs) - 1,
	}
}

// vmHWM reads the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// metricValue and result are the JSON result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// jsonNumber keeps a value encodable: +Inf, the percentile of a run whose
// failed jobs reach it, reads as the largest float.
func jsonNumber(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: corpus | rerun | tables | serve")
		seed     = flag.Uint64("seed", 1, "workload seed: the jobs' seeds derive from it")
		seconds  = flag.Float64("seconds", 20, "how long each pass measures on the machine the bounds were fixed on; sets the pass's job count")
		traceOn  = flag.Int("trace", 0, "1 adds a traced pass after the untraced one and reports the per-layer metrics")
		spans    = flag.String("spans", "", "write the traced pass's spans to this file as JSON lines (implies -trace 1)")
		compare  = flag.Bool("compare", false, "compare two sets of runs: mwbench -compare <setA> <setB>")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			usage("-compare takes two files of saved output")
		}
		os.Exit(runCompare(os.Stdout, benchmarkFile, flag.Arg(0), flag.Arg(1)))
	}
	b, ok := newBench(*workload)
	if !ok {
		usage(fmt.Sprintf("unknown -workload %q (want one of %s)", *workload, strings.Join(workloads, ", ")))
	}
	if *traceOn != 0 && *traceOn != 1 {
		usage("-trace must be 0 or 1")
	}
	if !(*seconds >= 0) {
		usage("-seconds must be non-negative")
	}
	traced := *traceOn == 1 || *spans != ""

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(".bench_build", "mwbench-")
	if err != nil {
		fatal(err)
	}
	o := runOpts{seed: *seed, seconds: *seconds, dir: dir}
	res, err := runBench(*workload, b, o, traced, *spans)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runBench runs one workload, prints its metrics as
// "<workload> <metric> <value> <unit>" lines and failed checks as
// "# FAIL" lines, and returns the JSON result. The result's metrics are
// one of BENCHMARK.json's two lists, as its format fixes them: end_to_end
// without tracing, per_layer with it. A traced run still prints its
// end-to-end lines, measured by its untraced pass.
func runBench(name string, b bench, o runOpts, traced bool, spansPath string) (*result, error) {
	out, err := b.run(o)
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	rss, err := vmHWM()
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	res := &result{Attempted: len(out.jobs), Metrics: map[string]metricValue{}}
	fmt.Printf("# %s: seed %d, %d jobs in %.3f s, %d set-ups\n", name, o.seed, len(out.jobs), out.wall.Seconds(), len(out.setup))
	e2e := e2eValues(out, rss)
	for _, m := range e2eMetrics {
		fmt.Printf("%s %s %s %s\n", name, m.name, formatValue(e2e[m.name]), m.unit)
		if !traced {
			res.Metrics[m.name] = metricValue{jsonNumber(e2e[m.name]), m.unit}
		}
	}
	if traced {
		tr := newTracer()
		counts, err := b.traced(o, tr, out)
		if err != nil {
			return nil, errors.Join(err, b.close())
		}
		all := tr.snapshot()
		layers := spanValues(all, out.jobs)
		for k, v := range counts {
			layers[k] = v
		}
		for _, m := range layerMetrics {
			fmt.Printf("%s %s %s %s\n", name, m.name, formatValue(layers[m.name]), m.unit)
			res.Metrics[m.name] = metricValue{jsonNumber(layers[m.name]), m.unit}
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, all); err != nil {
				return nil, errors.Join(err, b.close())
			}
		}
	}
	if err := b.close(); err != nil {
		return nil, err
	}
	for _, j := range out.jobs {
		if !j.ok {
			res.Failed++
		}
	}
	for _, p := range out.problems {
		fmt.Printf("# FAIL %s: %s\n", name, p)
	}
	res.Correct = len(out.problems) == 0
	return res, nil
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "mwbench:", msg)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mwbench:", err)
	os.Exit(1)
}
