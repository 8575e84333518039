// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of {name, ns_per_op, allocs_per_op} records, one per benchmark
// result line. The Makefile's bench target pipes the sampling benchmarks
// through it to produce BENCH_PR2.json, so benchmark history is diffable
// in review rather than buried in CI logs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mwu"
	"repro/internal/obs"
)

type record struct {
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	AllocsOp   *int64  `json:"allocs_per_op,omitempty"`
	BytesOp    *int64  `json:"bytes_per_op,omitempty"`
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkSample/naive/k=64-8   62011   19290 ns/op   0 B/op   0 allocs/op
//
// returning ok=false for non-result lines (headers, PASS, ok ...).
func parseLine(line string) (record, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return record{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[3] != "ns/op" {
		return record{}, false
	}
	iters, err1 := strconv.ParseInt(fields[1], 10, 64)
	ns, err2 := strconv.ParseFloat(fields[2], 64)
	if err1 != nil || err2 != nil {
		return record{}, false
	}
	// Strip the trailing -GOMAXPROCS suffix from the name.
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	r := record{Name: name, Iterations: iters, NsPerOp: ns}
	for i := 4; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesOp = &v
		case "allocs/op":
			r.AllocsOp = &v
		}
	}
	return r, true
}

// validateResilience decodes an `experiments -resilience -json` export
// and checks the documented schema keys are present — the CI chaos
// smoke's end-to-end guard that the E11 export stays machine-readable.
func validateResilience(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(buf, &cells); err != nil {
		return fmt.Errorf("%s: not a JSON array of objects: %w", path, err)
	}
	if len(cells) == 0 {
		return fmt.Errorf("%s: empty cell array", path)
	}
	required := []string{
		"algorithm", "mode", "faultRate", "runs", "convergedRuns", "degradedRuns",
		"iterationsMean", "accuracyMean", "faultsInjected", "stalledCycles",
		"missing", "retries", "timeouts", "hedgesWon", "crashes", "restarts",
		"msgDropped", "survivorsMean",
	}
	for i, c := range cells {
		for _, key := range required {
			if _, ok := c[key]; !ok {
				return fmt.Errorf("%s: cell %d missing key %q", path, i, key)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d resilience cells, schema ok\n", path, len(cells))
	return nil
}

// validateFamilies decodes an `experiments -families -json` export and
// checks both the schema and the experiment's coverage promises: every
// cell ran, all three non-paper scenario families appear, every MWU
// realization appears, at least one drifting cell actually applied a
// drift step (a schedule that never fires is a silently broken
// fixture), and every adversarial cell carries a congestion bill.
func validateFamilies(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw []map[string]json.RawMessage
	if err := json.Unmarshal(buf, &raw); err != nil {
		return fmt.Errorf("%s: not a JSON array of objects: %w", path, err)
	}
	if len(raw) == 0 {
		return fmt.Errorf("%s: empty cell array", path)
	}
	required := []string{
		"profile", "family", "algorithm", "runs", "repairedRuns",
		"iterationsMean", "probesMean", "fitnessEvalsMean",
		"driftStepsMean", "congestionCostMean", "maxLoad",
	}
	for i, c := range raw {
		for _, key := range required {
			if _, ok := c[key]; !ok {
				return fmt.Errorf("%s: cell %d missing key %q", path, i, key)
			}
		}
	}
	var cells []struct {
		Profile        string  `json:"profile"`
		Family         string  `json:"family"`
		Algorithm      string  `json:"algorithm"`
		Runs           int     `json:"runs"`
		ProbesMean     float64 `json:"probesMean"`
		DriftStepsMean float64 `json:"driftStepsMean"`
		CongestionMean float64 `json:"congestionCostMean"`
	}
	if err := json.Unmarshal(buf, &cells); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	families := map[string]bool{}
	algorithms := map[string]bool{}
	var driftApplied float64
	for _, c := range cells {
		if c.Runs <= 0 {
			return fmt.Errorf("%s: cell %s/%s has no runs", path, c.Profile, c.Algorithm)
		}
		families[c.Family] = true
		algorithms[c.Algorithm] = true
		if c.Family == "drifting" {
			driftApplied += c.DriftStepsMean
		}
		if c.Family == "adversarial" && c.CongestionMean < c.ProbesMean {
			return fmt.Errorf("%s: adversarial cell %s/%s: congestion cost %.0f below probe count %.0f",
				path, c.Profile, c.Algorithm, c.CongestionMean, c.ProbesMean)
		}
	}
	for _, fam := range []string{"multi-hunk", "drifting", "adversarial"} {
		if !families[fam] {
			return fmt.Errorf("%s: family %q missing from the export", path, fam)
		}
	}
	for _, alg := range mwu.Names {
		if !algorithms[alg] {
			return fmt.Errorf("%s: algorithm %q missing from the export", path, alg)
		}
	}
	if driftApplied == 0 {
		return fmt.Errorf("%s: no drifting cell applied a drift step", path)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d family cells (%d families, %d algorithms), schema ok\n",
		path, len(cells), len(families), len(algorithms))
	return nil
}

// validateServe schema-checks a repairbench BENCH_SERVE.json export: the
// `make servebench` smoke's gate that the service-level benchmark stays
// machine-readable AND honest — every sweep cell must have completed
// jobs, the full latency decomposition, and zero hot-spin retries (a
// 429/503 whose Retry-After the client could not honor because the
// server sent none).
func validateServe(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		Schema string                       `json:"schema"`
		Target string                       `json:"target"`
		Runs   []map[string]json.RawMessage `json:"runs"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return fmt.Errorf("%s: not a repairbench report: %w", path, err)
	}
	if doc.Schema != "repairbench/v1" {
		return fmt.Errorf("%s: schema %q, want repairbench/v1", path, doc.Schema)
	}
	if len(doc.Runs) == 0 {
		return fmt.Errorf("%s: no runs", path)
	}
	required := []string{
		"workload", "mode", "durationS", "submitted", "completed", "repaired",
		"failed", "cancelled", "rejected429", "rejected503", "retries",
		"hotSpins", "backoffWaitMs", "jobsPerSec", "repairsPerSec", "latencyMs",
	}
	workloads := map[string]bool{}
	closedLevels := map[int]bool{}
	for i, run := range doc.Runs {
		for _, key := range required {
			if _, ok := run[key]; !ok {
				return fmt.Errorf("%s: run %d missing key %q", path, i, key)
			}
		}
		var cell struct {
			Workload    string  `json:"workload"`
			Mode        string  `json:"mode"`
			Concurrency int     `json:"concurrency"`
			OfferedRPS  float64 `json:"offeredRps"`
			Completed   int     `json:"completed"`
			HotSpins    int64   `json:"hotSpins"`
			JobsPerSec  float64 `json:"jobsPerSec"`
			LatencyMs   map[string]struct {
				N   int      `json:"n"`
				P50 *float64 `json:"p50"`
				P95 *float64 `json:"p95"`
				P99 *float64 `json:"p99"`
			} `json:"latencyMs"`
		}
		raw, _ := json.Marshal(run)
		if err := json.Unmarshal(raw, &cell); err != nil {
			return fmt.Errorf("%s: run %d: %w", path, i, err)
		}
		label := fmt.Sprintf("run %d (%s/%s)", i, cell.Workload, cell.Mode)
		switch cell.Mode {
		case "closed":
			if cell.Concurrency < 1 {
				return fmt.Errorf("%s: %s: closed run without a concurrency level", path, label)
			}
			closedLevels[cell.Concurrency] = true
		case "open":
			if cell.OfferedRPS <= 0 {
				return fmt.Errorf("%s: %s: open run without an offered rate", path, label)
			}
		default:
			return fmt.Errorf("%s: %s: unknown mode", path, label)
		}
		workloads[cell.Workload] = true
		if cell.Completed == 0 || cell.JobsPerSec <= 0 {
			return fmt.Errorf("%s: %s: no completed jobs", path, label)
		}
		if cell.HotSpins != 0 {
			return fmt.Errorf("%s: %s: %d hot-spin retries — the daemon sent a 429/503 without a usable Retry-After", path, label, cell.HotSpins)
		}
		for _, dim := range []string{"queueWait", "exec", "e2e"} {
			lat, ok := cell.LatencyMs[dim]
			if !ok {
				return fmt.Errorf("%s: %s: latencyMs missing %q", path, label, dim)
			}
			if lat.N == 0 || lat.P50 == nil || lat.P95 == nil || lat.P99 == nil {
				return fmt.Errorf("%s: %s: latencyMs[%s] incomplete (want n>0 with p50/p95/p99)", path, label, dim)
			}
		}
	}
	if len(workloads) < 2 {
		return fmt.Errorf("%s: only %d workload mix(es); the sweep needs >= 2", path, len(workloads))
	}
	if len(closedLevels) > 0 && len(closedLevels) < 3 {
		return fmt.Errorf("%s: only %d closed-loop concurrency level(s); the sweep needs >= 3", path, len(closedLevels))
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d runs (%d workloads, %d closed levels), schema ok, zero hot-spins\n",
		path, len(doc.Runs), len(workloads), len(closedLevels))
	return nil
}

// validatePsample checks a committed BENCH_PR9.json concurrent-sampling
// record: the BenchmarkParallelSample trio must be present under its exact
// names (this file's own benchmark-line parser strips the -GOMAXPROCS
// suffix), every line must have run, and the frozen numbers must still
// show the redesign's point — the lock-free alias draw path at least 4×
// the throughput of the mutex-guarded Fenwick baseline at the same shape.
func validatePsample(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var records []record
	if err := json.Unmarshal(buf, &records); err != nil {
		return fmt.Errorf("%s: not a benchjson record array: %w", path, err)
	}
	byName := map[string]record{}
	for _, r := range records {
		byName[r.Name] = r
	}
	const (
		lockedName = "BenchmarkParallelSample/fenwick-locked/k=16384/streams=8"
		aliasName  = "BenchmarkParallelSample/alias/k=16384/streams=8"
		buildName  = "BenchmarkParallelSample/alias-build/k=16384"
	)
	for _, name := range []string{lockedName, aliasName, buildName} {
		r, ok := byName[name]
		if !ok {
			return fmt.Errorf("%s: missing %q", path, name)
		}
		if r.Iterations <= 0 || r.NsPerOp <= 0 {
			return fmt.Errorf("%s: %q did not run (iterations=%d, ns/op=%g)", path, name, r.Iterations, r.NsPerOp)
		}
	}
	ratio := byName[lockedName].NsPerOp / byName[aliasName].NsPerOp
	if ratio < 4 {
		return fmt.Errorf("%s: locked-Fenwick/alias draw ratio %.2fx below the 4x gate (%.1f vs %.1f ns/op)",
			path, ratio, byName[lockedName].NsPerOp, byName[aliasName].NsPerOp)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: parallel-sampling trio ok, alias draw %.1fx over locked Fenwick\n", path, ratio)
	return nil
}

// validateTrace schema-checks a -trace JSONL event stream against the
// internal/obs contract (known event types, dense sequence numbers,
// non-negative coordinates) — the `make trace` smoke's validator.
func validateTrace(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	if info.IsDir() {
		return validateTraceDir(path)
	}
	return validateTraceFile(path)
}

func validateTraceFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := obs.ValidateJSONL(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d trace events, schema ok\n", path, n)
	return nil
}

// validateTraceDir validates every *.jsonl file in a directory — the
// layout mwrepaird's -trace-dir produces (one trace per job). An empty
// directory is an error: validating nothing should not look like success.
func validateTraceDir(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("%s: no *.jsonl trace files", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := validateTraceFile(p); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d trace files, schema ok\n", dir, len(paths))
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	resilienceFile := flag.String("validate-resilience", "", "validate an `experiments -resilience -json` export instead of converting benchmarks")
	traceFile := flag.String("validate-trace", "", "validate a -trace JSONL event stream instead of converting benchmarks")
	serveFile := flag.String("validate-serve", "", "validate a repairbench BENCH_SERVE.json report instead of converting benchmarks")
	psampleFile := flag.String("validate", "", "validate a committed BENCH_PR9.json concurrent-sampling record instead of converting benchmarks")
	familiesFile := flag.String("validate-families", "", "validate an `experiments -families -json` export instead of converting benchmarks")
	flag.Parse()

	if *familiesFile != "" {
		if err := validateFamilies(*familiesFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if *psampleFile != "" {
		if err := validatePsample(*psampleFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	if *resilienceFile != "" {
		if err := validateResilience(*resilienceFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *serveFile != "" {
		if err := validateServe(*serveFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *traceFile != "" {
		if err := validateTrace(*traceFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}

	var records []record
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		// Echo the raw output so the pipe stays observable in CI logs.
		fmt.Fprintln(os.Stderr, line)
		if r, ok := parseLine(strings.TrimSpace(line)); ok {
			records = append(records, r)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}
	if len(records) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}

	buf, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: marshal: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: write %s: %v\n", *out, err)
		os.Exit(1)
	}
}
