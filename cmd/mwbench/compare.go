package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the benchmark definition, relative to the repository
// root the command runs from.
const benchmarkFile = "BENCHMARK.json"

// definition is the part of BENCHMARK.json that -compare and the parity
// test read.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []definedMetric `json:"end_to_end"`
	PerLayer []definedMetric `json:"per_layer"`
}

type definedMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// sampleKey identifies one metric of one workload.
type sampleKey struct{ workload, metric string }

// readSet collects the samples in a file of saved runs: the
// "<workload> <metric> <value> <unit>" lines of any number of runs,
// concatenated. The i-th sample of a key comes from the i-th run that
// printed it, which is how two sets pair up.
func readSet(path string, known map[string]definedMetric) (map[sampleKey][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[sampleKey][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 4 {
			continue
		}
		if _, ok := known[fields[1]]; !ok {
			continue
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: %q: %w", path, sc.Text(), err)
		}
		k := sampleKey{fields[0], fields[1]}
		set[k] = append(set[k], v)
	}
	return set, sc.Err()
}

// comparison is the verdict on one (workload, metric) pair.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// compareSamples judges set b (the change) against set a (the parent).
// With a bound, b regresses when its median is worse than a's by more
// than bound·median(a); the pair is unresolved when either set's spread
// (quartile distance over median) exceeds the bound, unless every run of b
// beats every run of a. A gain needs b to win at least nine tenths of the
// pairs, ties counting for neither, and the medians to differ by more
// than a's quartile distance. Without a bound (per-layer metrics) only
// the gain rule applies.
func compareSamples(a, b []float64, m definedMetric) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = quartiles(a)
	c.q1B, c.q3B = quartiles(b)
	higher := m.Better == "higher"
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	gain := c.pairs > 0 && 10*c.wins >= 9*c.pairs && better(c.medB, c.medA) &&
		math.Abs(c.medB-c.medA) > c.q3A-c.q1A
	c.verdict = "same"
	if m.Bound != nil {
		bound := *m.Bound * math.Abs(c.medA)
		worse := c.medB - c.medA
		if higher {
			worse = -worse
		}
		spreadA := ratio(c.q3A-c.q1A, math.Abs(c.medA))
		spreadB := ratio(c.q3B-c.q1B, math.Abs(c.medB))
		switch {
		case worse > bound:
			c.verdict = "REGRESSED"
		case (spreadA > *m.Bound || spreadB > *m.Bound) && !allBetter:
			c.verdict = "UNRESOLVED"
		}
	}
	if gain && c.verdict == "same" {
		c.verdict = "gain"
	}
	return c
}

// runCompare prints, for every (workload, metric) both sets hold, each
// set's median and quartiles and the verdict under BENCHMARK.json's
// bounds. It returns the exit status: 1 when an end-to-end metric
// regressed. An unresolved metric is reported, not failed: the sets
// cannot tell whether it changed.
func runCompare(w io.Writer, defPath, pathA, pathB string) int {
	def, err := loadDefinition(defPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		return 1
	}
	known := map[string]definedMetric{}
	var order []definedMetric
	for _, m := range append(append([]definedMetric(nil), def.EndToEnd...), def.PerLayer...) {
		known[m.Name] = m
		order = append(order, m)
	}
	a, err := readSet(pathA, known)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		return 1
	}
	b, err := readSet(pathB, known)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		return 1
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbound\tn\tA median [q1, q3]\tB median [q1, q3]\tB vs A\tB wins\tverdict")
	status := 0
	for _, wl := range def.Workloads {
		for _, m := range order {
			k := sampleKey{wl.Name, m.Name}
			sa, sb := a[k], b[k]
			if len(sa) == 0 || len(sb) == 0 {
				continue
			}
			c := compareSamples(sa, sb, m)
			bound := "-"
			if m.Bound != nil {
				bound = formatValue(*m.Bound)
			}
			if c.verdict == "REGRESSED" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d/%d\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.2f%%\t%d/%d\t%s\n",
				wl.Name, m.Name, m.Unit, bound, len(sa), len(sb),
				c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B,
				100*ratio(c.medB-c.medA, math.Abs(c.medA)), c.wins, c.pairs, c.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "mwbench:", err)
		return 1
	}
	return status
}
