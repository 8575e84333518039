package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mutation"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/testsuite"
)

// serveSource is serve's repair subject: a loop that adds n to acc m+1
// times, with a defect that adds 7 when n >= 100. Each test runs hundreds
// of loop passes, so suite execution, not the cache key, is the probe's
// cost. The 7 passes through six temporaries, so deleting any of seven
// statements repairs the program, and the positive tests skip all seven,
// so about half of the first 64 candidates are safe.
//
// A pool that holds no repairing mutation sends its job to MaxIter,
// seconds behind the daemon's one worker, and the arrivals queued behind
// it are rejected. The long chain makes that vanishingly rare: over job
// seeds 1 to 40000 every job repaired, and of 2000 pools none held fewer
// than four single-mutation repairs, where with the 7 through two
// temporaries one held none. It also fills the pool of 24 from the first
// batch of 64 candidates in 99.4% of jobs, so job cost does not split
// into two classes either side of a percentile. The search stays short:
// one update cycle in 87% of jobs.
const serveSource = `input n
input m
set acc = 0
set i = 0
label loop
if i > m goto done
set acc = acc + n
set i = i + 1
goto loop
label done
if n < 100 goto ok
set t0 = 7
set t1 = t0
set t2 = t1
set t3 = t2
set t4 = t3
set t5 = t4
set acc = acc + t5
label ok
print acc
halt
`

// serveSuite expects (m+1)·n from every test. A test runs at most about
// 1300 steps and may run about five times that, so a mutant that never
// leaves the loop costs five passing tests, not more.
func serveSuite() *server.SuiteSpec {
	test := func(name string, n, m int64) server.TestSpec {
		return server.TestSpec{Name: name, Input: []int64{n, m}, Want: []int64{(m + 1) * n}, MaxSteps: 6500}
	}
	return &server.SuiteSpec{
		Positive: []server.TestSpec{test("p1", 1, 250), test("p2", 3, 187), test("p3", 99, 125)},
		Negative: []server.TestSpec{test("bug", 500, 62)},
	}
}

const (
	// serveRate is the open loop's mean arrival rate, in jobs a second.
	// At about 5 ms of execution a job the daemon's one worker is busy
	// about a twentieth of the time, so about one arrival in twenty finds
	// it busy and waits: those jobs sit above the p90 on every seed
	// instead of straddling it, and a host running half as fast still
	// leaves the queue short. A pass of 20 s runs 200 arrivals, 20 of them
	// above the p90.
	serveRate = 10.0
	// serveLateLimit invalidates a pass whose load generator fired late.
	serveLateLimit = 5 * time.Millisecond
)

// arrivals is serve's open-loop schedule: n arrival offsets of a Poisson
// process of rate serveRate, drawn from rng.New(seed) as n+1 exponential
// gaps and scaled so that the n arrivals fill n/serveRate seconds. That
// is the Poisson process conditioned on its count, whose arrivals are
// uniform over the window: the bursts stay, and the window's length, and
// jobs_per_s with it, no longer wanders by 1/√n (10% at 100 arrivals)
// between seeds.
func arrivals(seed uint64, n int) []time.Duration {
	r := rng.New(seed)
	sums := make([]float64, n+1)
	total := 0.0
	for i := range sums {
		total += r.ExpFloat64()
		sums[i] = total
	}
	window := float64(n) / serveRate * float64(time.Second)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(sums[i] / total * window)
	}
	return at
}

// serveAlgorithm is the learner every serve job uses.
const serveAlgorithm = "standard"

// serveSpec is the job an arrival submits.
func serveSpec(seed uint64) server.Spec {
	return server.Spec{Program: serveSource, Name: "loop", Suite: serveSuite(), PoolTarget: 24,
		Algorithm: serveAlgorithm, Workers: probeWorkers, MaxIter: repairMaxIter, Seed: seed}
}

// daemon is an in-process repair daemon on a loopback listener.
type daemon struct {
	m      *server.Manager
	srv    *http.Server
	url    string
	served chan error
	client *http.Client
}

// startDaemon starts server.Handler over a one-worker manager and waits
// until it answers /healthz.
func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		m:      server.NewManager(server.Config{Workers: 1}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		// Two connections at most: the open loop rarely has more than one
		// submission in flight, and the process keeps to nproc threads.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: probeWorkers, MaxIdleConnsPerHost: probeWorkers}},
	}
	d.srv = &http.Server{Handler: server.Handler(d.m)}
	go func() { d.served <- d.srv.Serve(ln) }()
	resp, err := d.client.Get(d.url + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop shuts the HTTP server and the manager down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	return errors.Join(err, d.m.Shutdown(ctx))
}

// getJSON fetches a daemon resource into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveResult is one arrival's fate.
type serveResult struct {
	seed     uint64
	id       string
	late     time.Duration
	latency  time.Duration // from the arrival's due time to completion seen
	done     time.Time     // when the job's end (or its rejection) was seen
	rejected bool
	state    server.State
	res      *server.Result
	err      error
}

// serveBench is the serve workload.
type serveBench struct {
	sc      *scenario.Scenario
	d       *daemon
	results []serveResult
}

func (b *serveBench) run(o runOpts) (*outcome, error) {
	out := &outcome{}
	err := out.timeSetUp(func() error {
		suite := serveSuite()
		sc, err := scenario.FromSource("loop", serveSource, &testsuite.Suite{
			Positive: toTests(suite.Positive), Negative: toTests(suite.Negative)}, 24, 0)
		if err != nil {
			return err
		}
		d, err := startDaemon()
		if err != nil {
			return err
		}
		b.sc, b.d = sc, d
		return nil
	}, b.close)
	if err != nil {
		return nil, err
	}

	var start time.Time
	b.results, start = b.pass(o, nil)
	out.wall = lastDone(start, b.results)

	var lates []float64
	for i, r := range b.results {
		lates = append(lates, ms(r.late))
		js := jobStat{latency: ms(r.latency), solved: r.res != nil && r.res.Repaired}
		if err := b.check(r); err != nil {
			out.failf("job %d (seed %d): %v", i, r.seed, err)
			js.latency = inf
		} else {
			js.ok = true
		}
		out.jobs = append(out.jobs, js)
	}
	if p90 := percentile(lates, 90); p90 > ms(serveLateLimit) {
		out.failf("load generator ran late: p90 %.3f ms > %v", p90, serveLateLimit)
	}
	return out, nil
}

func toTests(specs []server.TestSpec) []testsuite.Test {
	out := make([]testsuite.Test, len(specs))
	for i, t := range specs {
		out[i] = testsuite.Test{Name: t.Name, Input: t.Input, Want: t.Want, MaxSteps: t.MaxSteps}
	}
	return out
}

// pass runs the open loop once: every arrival is submitted at its due time
// by its own goroutine, which then waits for the job to finish. With a
// tracer, each job also gets its lateness, admission, queue and execution
// spans, the last two from the daemon's status timestamps.
func (b *serveBench) pass(o runOpts, tr *tracer) ([]serveResult, time.Time) {
	schedule := arrivals(o.seed, o.slots(serveRate))
	results := make([]serveResult, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()
	for i, offset := range schedule {
		at := start.Add(offset)
		time.Sleep(time.Until(at))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = b.submit(at, jobSeed(o.seed, i), tr, i)
		}(i)
	}
	wg.Wait()
	return results, start
}

// submit posts one job, due at the given instant, and waits for it.
func (b *serveBench) submit(due time.Time, seed uint64, tr *tracer, i int) serveResult {
	r := serveResult{seed: seed}
	body, err := json.Marshal(serveSpec(seed))
	if err != nil {
		r.err = err
		return r
	}
	sent := time.Now()
	r.late = sent.Sub(due)
	resp, err := b.d.client.Post(b.d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	admitted := time.Now()
	r.done = admitted
	if err != nil {
		r.err = err
		return r
	}
	var st server.Status
	switch resp.StatusCode {
	case http.StatusAccepted:
		err = json.NewDecoder(resp.Body).Decode(&st)
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.rejected = true
	default:
		err = fmt.Errorf("POST /v1/jobs: %s", resp.Status)
	}
	resp.Body.Close()
	if r.rejected || err != nil {
		r.err = err
		return r
	}
	j, ok := b.d.m.Get(st.ID)
	if !ok {
		r.err = fmt.Errorf("job %s vanished", st.ID)
		return r
	}
	<-j.Done()
	done := time.Now()
	r.id, r.latency, r.done, r.state, r.res = st.ID, done.Sub(due), done, j.State(), j.Result()
	if tr == nil {
		return r
	}
	var fin server.Status
	if err := b.d.getJSON("/v1/jobs/"+st.ID, &fin); err != nil {
		r.err = err
		return r
	}
	queued, started, finished, err := statusTimes(fin)
	if err != nil {
		r.err = err
		return r
	}
	jobSpan := tr.open(layerJob, i, -1, tr.at(due))
	tr.add(layerLate, i, jobSpan, tr.at(due), tr.at(sent))
	tr.add(layerAdmit, i, jobSpan, tr.at(sent), tr.at(admitted))
	tr.add(layerQueue, i, jobSpan, tr.at(queued), tr.at(started))
	tr.add(layerExec, i, jobSpan, tr.at(started), tr.at(finished))
	tr.close(jobSpan, tr.at(done))
	return r
}

// statusTimes decodes a finished job's status timestamps.
func statusTimes(st server.Status) (queued, started, finished time.Time, err error) {
	parse := func(s string) time.Time {
		t, perr := time.Parse(time.RFC3339Nano, s)
		if perr != nil && err == nil {
			err = fmt.Errorf("job %s: timestamp %q: %w", st.ID, s, perr)
		}
		return t
	}
	return parse(st.QueuedAt), parse(st.StartedAt), parse(st.FinishedAt), err
}

// lastDone is the measured phase's wall time: from the pass start to the
// last job's end.
func lastDone(start time.Time, rs []serveResult) time.Duration {
	var last time.Time
	for _, r := range rs {
		if r.done.After(last) {
			last = r.done
		}
	}
	return last.Sub(start)
}

// check verifies one job: it finished, and a repair's patch, fetched over
// the API, rebuilds the reported program and passes the suite.
func (b *serveBench) check(r serveResult) error {
	switch {
	case r.err != nil:
		return r.err
	case r.rejected:
		return fmt.Errorf("rejected")
	case r.state != server.StateDone || r.res == nil:
		return fmt.Errorf("finished %s", r.state)
	case !r.res.Repaired:
		return nil
	}
	var body struct {
		Patch []struct {
			Op   int    `json:"op"`
			At   int    `json:"at"`
			From int    `json:"from"`
			Sig  string `json:"sig"`
		} `json:"patch"`
		Program string `json:"program"`
	}
	if err := b.d.getJSON("/v1/jobs/"+r.id+"/patch", &body); err != nil {
		return err
	}
	patch := make([]mutation.Mutation, len(body.Patch))
	for i, p := range body.Patch {
		patch[i] = mutation.Mutation{Op: mutation.Op(p.Op), At: p.At, From: p.From}
		if patch[i].ID() != p.Sig {
			return fmt.Errorf("patch entry %d: signature %q, mutation is %q", i, p.Sig, patch[i].ID())
		}
	}
	return verifyPatch(b.sc.Program, b.sc.Suite, patch, body.Program)
}

// traced replays the arrival schedule against the daemon, taking queue and
// execution spans from its status timestamps, and then runs every job
// again in process through tracedRepair for the layers inside the daemon.
// Both replays must reproduce the untraced job's counts; patches are
// compared only against the in-process replay's set of repairs, since
// the daemon reports whichever repairing probe of a cycle finished first.
func (b *serveBench) traced(o runOpts, tr *tracer, out *outcome) (map[string]float64, error) {
	daemonPass, _ := b.pass(o, tr)
	var rejected float64
	var replays []repairResult
	for i, r := range daemonPass {
		if r.rejected {
			rejected++
		}
		if err := b.check(r); err != nil {
			out.failf("traced job %d (seed %d): %v", i, r.seed, err)
		}
		p := tracedRepair(tr, layerRepair, i, b.sc, serveAlgorithm, r.seed, nil)
		replays = append(replays, p)
		u := b.results[i].res
		switch {
		case p.err != nil:
			out.failf("in-process job %d (seed %d): %v", i, r.seed, p.err)
		case u == nil:
		case r.res != nil && !sameCounts(resultCounts(r.res), resultCounts(u)):
			out.failf("traced job %d (seed %d) differs from untraced: %s vs %s", i, r.seed, counts(resultCounts(r.res)), counts(resultCounts(u)))
		case !sameCounts(p.res, resultCounts(u)) || !p.found(u.Patch):
			out.failf("in-process job %d (seed %d) differs from the daemon's: %s vs %s", i, r.seed, counts(p.res), counts(resultCounts(u)))
		}
	}
	m := repairCounts(replays)
	m["server.rejected"] = rejected
	return m, nil
}

// resultCounts carries a daemon job's counts over to core's result type.
func resultCounts(r *server.Result) core.Result {
	return core.Result{Repaired: r.Repaired, Patch: r.Patch, Iterations: r.Iterations,
		Probes: r.Probes, FitnessEvals: r.FitnessEvals, CacheHits: r.CacheHits}
}

func (b *serveBench) close() error {
	if b.d == nil {
		return nil
	}
	err := b.d.stop()
	b.d = nil
	return err
}
