package experiments

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mwu"
)

func TestRunCellBasic(t *testing.T) {
	ds := dataset.MustGet("random64")
	spec := Spec{Seeds: 3, MaxIter: 3000}
	cell := RunCell("standard", ds, spec)
	if cell.Runs != 3 {
		t.Fatalf("runs = %d", cell.Runs)
	}
	if cell.Intractable {
		t.Fatal("random64 standard should be tractable")
	}
	if cell.Accuracy.Mean() < 90 {
		t.Fatalf("accuracy %.1f below the paper's 90%% floor", cell.Accuracy.Mean())
	}
	if cell.Iterations.Mean() <= 0 || cell.CPUIterations.Mean() <= 0 {
		t.Fatalf("cell = %+v", cell)
	}
	// CPU-iterations = iterations × agents for Standard.
	wantCPU := cell.Iterations.Mean() * float64(cell.Agents)
	if got := cell.CPUIterations.Mean(); got < wantCPU*0.99 || got > wantCPU*1.01 {
		t.Fatalf("cpu-iterations %.0f, want %.0f", got, wantCPU)
	}
}

func TestRunCellIntractable(t *testing.T) {
	ds := dataset.MustGet("random16384")
	cell := RunCell("distributed", ds, Spec{Seeds: 1, MaxIter: 10})
	if !cell.Intractable {
		t.Fatal("distributed at 16384 must be intractable")
	}
}

func TestRunSmallSlice(t *testing.T) {
	spec := Spec{
		Algorithms: []string{"standard", "distributed"},
		Datasets:   []string{"random64", "unimodal64"},
		Seeds:      2,
		MaxIter:    3000,
	}
	cells, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	// Order: dataset-major, algorithm order standard < distributed.
	if cells[0].Dataset != "random64" || cells[0].Algorithm != "standard" {
		t.Fatalf("order wrong: %s/%s", cells[0].Dataset, cells[0].Algorithm)
	}
	if cells[1].Algorithm != "distributed" {
		t.Fatalf("order wrong: %+v", cells[1])
	}
	if cells[2].Dataset != "unimodal64" {
		t.Fatalf("order wrong: %+v", cells[2])
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	if _, err := Run(Spec{Algorithms: []string{"nope"}, Datasets: []string{"random64"}, Seeds: 1}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := Run(Spec{Datasets: []string{"nope"}, Seeds: 1}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := Spec{Algorithms: []string{"standard"}, Datasets: []string{"random64"}, Seeds: 2, MaxIter: 2000}
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Iterations.Mean() != b[0].Iterations.Mean() || a[0].Accuracy.Mean() != b[0].Accuracy.Mean() {
		t.Fatal("runs not deterministic under fixed BaseSeed")
	}
}

func TestRenderTables(t *testing.T) {
	spec := Spec{
		Algorithms: []string{"standard", "distributed", "slate"},
		Datasets:   []string{"random64"},
		Seeds:      2,
		MaxIter:    2000,
	}
	cells, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderAllTables(cells, spec.MaxIter)
	for _, want := range []string{"Table II", "Table III", "Table IV", "random64", "Standard", "Distributed", "Slate", "-- Random --"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered tables missing %q:\n%s", want, out)
		}
	}
}

func TestRenderIntractableDash(t *testing.T) {
	cells := []Cell{{Dataset: "random16384", Kind: dataset.KindRandom, Size: 16384, Algorithm: "distributed", Intractable: true}}
	out := RenderTable(TableConvergence, cells, 10000)
	if !strings.Contains(out, "—") {
		t.Fatalf("intractable cell not rendered as dash:\n%s", out)
	}
}

func TestRenderNonConverged(t *testing.T) {
	cell := Cell{Dataset: "x", Kind: dataset.KindRandom, Size: 64, Algorithm: "slate", Runs: 2}
	cell.Iterations = summaryOf(10000, 10000)
	out := RenderTable(TableConvergence, []Cell{cell}, 10000)
	if !strings.Contains(out, "≥10000") {
		t.Fatalf("non-converged cell not marked:\n%s", out)
	}
}

func TestVerifyTableOne(t *testing.T) {
	rows := VerifyTableOne([]int{64, 256}, 2000, 1)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[1] // k = 256
	if len(r.Cells) != len(mwu.Names) {
		t.Fatalf("cells = %d, want one per registered learner (%d)", len(r.Cells), len(mwu.Names))
	}
	std, dis, slate := cellOf(r, "standard"), cellOf(r, "distributed"), cellOf(r, "slate")
	// Memory: k for Standard/Slate, O(1) for Distributed, 2k for the
	// stream learners (weights plus their side vector).
	if std.Memory != 256 || slate.Memory != 256 || dis.Memory != 1 {
		t.Fatalf("memory row: %+v", r.Cells)
	}
	for _, alg := range []string{"optimistic", "congestion"} {
		if c := cellOf(r, alg); c.Memory != 512 {
			t.Fatalf("%s memory = %d, want 2k = 512", alg, c.Memory)
		}
	}
	// Congestion: Standard equals its agent count; Distributed far less
	// than its population; the congestion-game learner's realized max load
	// never exceeds its agent count.
	if std.Congestion != int64(std.Agents) {
		t.Fatalf("standard congestion %d != agents %d", std.Congestion, std.Agents)
	}
	if dis.Congestion >= int64(dis.Agents/10) {
		t.Fatalf("distributed congestion %d not ≪ population %d", dis.Congestion, dis.Agents)
	}
	if cg := cellOf(r, "congestion"); cg.Congestion < 1 || cg.Congestion > int64(cg.Agents) {
		t.Fatalf("congestion-game max load %d outside [1, %d]", cg.Congestion, cg.Agents)
	}
	if dis.CongestionBound <= 0 {
		t.Fatal("missing balls-into-bins bound")
	}
	out := RenderTableOne(rows)
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "ln n/ln ln n") {
		t.Fatalf("render missing headers:\n%s", out)
	}
}

func TestVerifyTableOneIntractableRow(t *testing.T) {
	rows := VerifyTableOne([]int{16384}, 10, 1)
	if !cellOf(rows[0], "distributed").Intractable {
		t.Fatal("16384 should be intractable for distributed")
	}
	out := RenderTableOne(rows)
	if !strings.Contains(out, "—") {
		t.Fatalf("intractable row not dashed:\n%s", out)
	}
}

func TestHalfLife(t *testing.T) {
	xs := []int{1, 2, 4, 8}
	if got := HalfLife(xs, []float64{1, 0.9, 0.5, 0.1}); got != 4 {
		t.Fatalf("half life = %d", got)
	}
	if got := HalfLife(xs, []float64{1, 0.9, 0.8, 0.7}); got != 0 {
		t.Fatalf("no crossing should return 0, got %d", got)
	}
}

func TestBar(t *testing.T) {
	if bar(0.5, 10) != "#####" {
		t.Fatalf("bar = %q", bar(0.5, 10))
	}
	if bar(2, 4) != "####" {
		t.Fatal("bar should clamp at width")
	}
	if bar(-1, 4) != "" {
		t.Fatal("negative bar should be empty")
	}
}

func TestRenderCostModel(t *testing.T) {
	out := RenderCostModel(1000)
	for _, want := range []string{"Sec. IV-E", "Standard", "Distributed", "Slate", "APR", "→ Standard"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cost model demo missing %q:\n%s", want, out)
		}
	}
}

func TestAccuracyFloorAllAlgorithms(t *testing.T) {
	// The paper's headline finding: every algorithm achieves at least 90%
	// mean accuracy. Assert it on one dataset per group for all three.
	if testing.Short() {
		t.Skip("multi-algorithm accuracy sweep")
	}
	for _, dsName := range []string{"random64", "unimodal64"} {
		ds := dataset.MustGet(dsName)
		for _, alg := range []string{"standard", "distributed", "slate"} {
			cell := RunCell(alg, ds, Spec{Seeds: 3, MaxIter: 10000})
			if cell.Intractable {
				t.Fatalf("%s/%s intractable", alg, dsName)
			}
			if cell.Accuracy.Mean() < 90 {
				t.Fatalf("%s on %s: accuracy %.1f below 90%%", alg, dsName, cell.Accuracy.Mean())
			}
		}
	}
}

func TestStandardLeastAccurateOnRandom(t *testing.T) {
	// Table III's ordering: Standard trails Distributed and Slate.
	if testing.Short() {
		t.Skip("ordering sweep")
	}
	ds := dataset.MustGet("random256")
	spec := Spec{Seeds: 5, MaxIter: 10000}
	stdCell := RunCell("standard", ds, spec)
	dstCell := RunCell("distributed", ds, spec)
	sltCell := RunCell("slate", ds, spec)
	std, dst, slt := stdCell.Accuracy.Mean(), dstCell.Accuracy.Mean(), sltCell.Accuracy.Mean()
	if std > dst || std > slt {
		t.Fatalf("accuracy ordering violated: standard %.2f, distributed %.2f, slate %.2f", std, dst, slt)
	}
}

// cellOf returns the row's cell for the named algorithm, or nil if the
// algorithm was not measured.
func cellOf(r TableOneRow, alg string) *TableOneCell {
	for i := range r.Cells {
		if r.Cells[i].Algorithm == alg {
			return &r.Cells[i]
		}
	}
	return nil
}
