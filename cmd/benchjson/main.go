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

// readCells reads an experiments -json export: a non-empty JSON array of
// objects, each holding every required key. It returns the raw bytes for
// a typed second decode and the cell count.
func readCells(path string, required ...string) ([]byte, int, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var cells []map[string]json.RawMessage
	if err := json.Unmarshal(buf, &cells); err != nil {
		return nil, 0, fmt.Errorf("%s: not a JSON array of objects: %w", path, err)
	}
	if len(cells) == 0 {
		return nil, 0, fmt.Errorf("%s: empty cell array", path)
	}
	for i, c := range cells {
		for _, key := range required {
			if _, ok := c[key]; !ok {
				return nil, 0, fmt.Errorf("%s: cell %d missing key %q", path, i, key)
			}
		}
	}
	return buf, len(cells), nil
}

// validateResilience decodes an `experiments -resilience -json` export
// and checks the documented schema keys are present — the CI chaos
// smoke's end-to-end guard that the E11 export stays machine-readable.
func validateResilience(path string) error {
	_, n, err := readCells(path,
		"algorithm", "mode", "faultRate", "runs", "convergedRuns", "degradedRuns",
		"iterationsMean", "accuracyMean", "faultsInjected", "stalledCycles",
		"missing", "retries", "timeouts", "hedgesWon", "crashes", "restarts",
		"msgDropped", "survivorsMean")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchjson: %s: %d resilience cells, schema ok\n", path, n)
	return nil
}

// validateFamilies decodes an `experiments -families -json` export and
// checks both the schema and the experiment's coverage promises: every
// cell ran, all three non-paper scenario families appear, every MWU
// realization appears, at least one drifting cell actually applied a
// drift step (a schedule that never fires is a silently broken
// fixture), and every adversarial cell carries a congestion bill.
func validateFamilies(path string) error {
	buf, _, err := readCells(path,
		"profile", "family", "algorithm", "runs", "repairedRuns",
		"iterationsMean", "probesMean", "fitnessEvalsMean",
		"driftStepsMean", "congestionCostMean", "maxLoad")
	if err != nil {
		return err
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
// non-negative coordinates) — the `make trace` smoke's validator. Given
// a directory (mwrepaird's -trace-dir layout, one trace per job) it
// checks every *.jsonl file in it; an empty directory is an error, since
// validating nothing should not look like success.
func validateTrace(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	paths := []string{path}
	if info.IsDir() {
		// Glob fails only on a malformed pattern, and sorts its matches.
		paths, _ = filepath.Glob(filepath.Join(path, "*.jsonl"))
		if len(paths) == 0 {
			return fmt.Errorf("%s: no *.jsonl trace files", path)
		}
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		n, err := obs.ValidateJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %s: %d trace events, schema ok\n", p, n)
	}
	return nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	resilienceFile := flag.String("validate-resilience", "", "validate an `experiments -resilience -json` export instead of converting benchmarks")
	traceFile := flag.String("validate-trace", "", "validate a -trace JSONL event stream instead of converting benchmarks")
	psampleFile := flag.String("validate", "", "validate a committed BENCH_PR9.json concurrent-sampling record instead of converting benchmarks")
	familiesFile := flag.String("validate-families", "", "validate an `experiments -families -json` export instead of converting benchmarks")
	flag.Parse()

	// Each -validate* flag checks one file instead of converting
	// benchmarks; the first one set wins.
	for _, v := range []struct {
		path  string
		check func(string) error
	}{
		{*familiesFile, validateFamilies},
		{*psampleFile, validatePsample},
		{*resilienceFile, validateResilience},
		{*traceFile, validateTrace},
	} {
		if v.path == "" {
			continue
		}
		if err := v.check(v.path); err != nil {
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
