package experiments

import (
	"context"

	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/bandit"
	"repro/internal/congestion"
	"repro/internal/dist"
	"repro/internal/mwu"
	"repro/internal/rng"
)

// TableOneCell is one algorithm's measured quantities at one option count:
// the empirical side of one column of the paper's Table I. Congestion and
// memory are int64, matching the mwu.Metrics fields they are read from.
type TableOneCell struct {
	Algorithm  string
	Congestion int64
	Memory     int64
	Agents     int
	Iters      int

	// CongestionBound is the closed-form ln n / ln ln n reference for the
	// algorithm's population; set only where Table I states a balls-into-bins
	// bound (Distributed).
	CongestionBound float64
	// Intractable marks configurations the factory refused (population
	// above the tractability bound); the measured fields are zero.
	Intractable bool
}

// TableOneRow is one empirical verification point of the formal comparison
// in Table I: for a given option count k, the measured communication
// congestion, per-node memory, agents, and update cycles of every
// registered learner. Cells follow mwu.Names order, so new learners appear
// without this package changing.
type TableOneRow struct {
	K     int
	Cells []TableOneCell
}

// VerifyTableOne measures the Table I quantities on random instances of
// the given sizes. Every quantity comes from real learner accounting — the
// congestion, memory and agent numbers are read out of the mwu.Metrics of
// actual runs, not recomputed from formulas.
func VerifyTableOne(sizes []int, maxIter int, seed uint64) []TableOneRow {
	if maxIter <= 0 {
		maxIter = 10000
	}
	rows := make([]TableOneRow, 0, len(sizes))
	for i, k := range sizes {
		r := rng.New(seed + uint64(i)*977)
		d := dist.Random(fmt.Sprintf("verify%d", k), k, r)
		row := TableOneRow{K: k}
		for _, alg := range mwu.Names {
			cell := TableOneCell{Algorithm: alg}
			learner, err := mwu.NewLearner(mwu.Config{Algorithm: alg, K: k}, r.Split())
			if err != nil {
				cell.Intractable = true
				row.Cells = append(row.Cells, cell)
				continue
			}
			p := bandit.NewProblem(d)
			res := mwu.Run(context.Background(), learner, p, r.Split(), mwu.RunConfig{MaxIter: maxIter, Workers: 1})
			m := learner.Metrics()
			cell.Congestion = m.MaxCongestion
			cell.Memory = m.MemoryFloats
			cell.Agents = learner.Agents()
			cell.Iters = res.Iterations
			if alg == "distributed" {
				cell.CongestionBound = congestion.BallsIntoBinsBound(learner.Agents())
			}
			row.Cells = append(row.Cells, cell)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTableOne renders the verification rows next to the closed-form
// predictions: one block per option count, one line per algorithm — the
// transpose of the paper's layout, which stays readable as the learner
// registry grows.
func RenderTableOne(rows []TableOneRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table I (verified) — measured per-iteration congestion, per-node memory, agents, update cycles")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "k\talgorithm\tcongestion\tln n/ln ln n\tmemory\tagents\titers")
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Intractable {
				need := mwu.DefaultPopSize(r.K, 0.71)
				fmt.Fprintf(w, "%d\t%s\t—\t—\t—\t(needs %d)\t—\n", r.K, c.Algorithm, need)
				continue
			}
			bound := ""
			if c.CongestionBound > 0 {
				bound = fmt.Sprintf("%.1f", c.CongestionBound)
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%d\t%d\t%d\n",
				r.K, c.Algorithm, c.Congestion, bound, c.Memory, c.Agents, c.Iters)
		}
	}
	w.Flush()
	fmt.Fprintln(&b, "\nAsymptotic reference (Table I):")
	fmt.Fprintln(&b, "  Communication:  Standard O(n)   Distributed O(ln n/ln ln n)*   Slate O(n)")
	fmt.Fprintln(&b, "  Memory:         Standard O(k)   Distributed O(1)               Slate O(k)")
	fmt.Fprintln(&b, "  Convergence:    Standard O(ln k/ε²)   Distributed O(ln k/δ)*   Slate O((k/n)·ln k/ε²)")
	fmt.Fprintln(&b, "  Min agents:     Standard O(n)   Distributed O(k^(1/δ))         Slate O(n)")
	fmt.Fprintln(&b, "  (* holds with probability ≥ 1−1/n)")
	fmt.Fprintln(&b, "  Optimistic and Congestion share Standard's communication/memory shape (n messages, k floats)")
	fmt.Fprintln(&b, "  except Congestion reports the realized max arm load, the quantity its dynamics dissipate.")
	return b.String()
}
