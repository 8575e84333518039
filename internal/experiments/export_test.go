package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/stats"
)

func summaryOf(xs ...float64) stats.Summary {
	var s stats.Summary
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func sampleCells() []Cell {
	a := Cell{Dataset: "random64", Kind: dataset.KindRandom, Size: 64, Algorithm: "standard", Runs: 2, ConvergedRuns: 2, Agents: 16, MemoryFloats: 64}
	a.Iterations = summaryOf(100, 120)
	a.Accuracy = summaryOf(95, 97)
	a.CPUIterations = summaryOf(1600, 1920)
	a.Congestion = summaryOf(16, 16)
	b := Cell{Dataset: "random16384", Kind: dataset.KindRandom, Size: 16384, Algorithm: "distributed", Intractable: true}
	return []Cell{a, b}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleCells(), 10000); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 { // header + 2 rows
		t.Fatalf("records = %d", len(records))
	}
	if records[0][0] != "dataset" {
		t.Fatalf("header = %v", records[0])
	}
	if records[1][0] != "random64" || records[1][3] != "standard" {
		t.Fatalf("row = %v", records[1])
	}
	if records[2][4] != "true" { // intractable column
		t.Fatalf("intractable row = %v", records[2])
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleCells()); err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("entries = %d", len(out))
	}
	if out[0]["dataset"] != "random64" || out[0]["iterationsMean"].(float64) != 110 {
		t.Fatalf("entry = %v", out[0])
	}
	if out[1]["intractable"] != true {
		t.Fatalf("entry = %v", out[1])
	}
}

func TestWriteFigureCSV(t *testing.T) {
	d := &FigureData{
		Scenario:        "x",
		Xs:              []int{1, 2},
		SafeDensity:     []float64{1, 0.9},
		UnvettedDensity: []float64{0.5, 0.2},
		RepairDensity:   []float64{0, 0.01},
	}
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %v", lines)
	}
	if lines[1] != "1,1,0.5,0" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestCalibrateCostModel(t *testing.T) {
	cells := sampleCells() // one converged standard cell, one intractable
	cal := CalibrateCostModel(cells)
	if cal.Cells[0] != 1 { // costmodel.Standard == 0
		t.Fatalf("standard cells = %d", cal.Cells[0])
	}
	c := cal.Constant[0]
	if c <= 0 {
		t.Fatalf("constant = %v", c)
	}
	// The fitted constant times the asymptotic form at the calibration
	// point reproduces the measured mean exactly (single cell -> geometric
	// mean is that ratio).
	got := c * costmodel.Predict(costmodel.Standard, costmodel.Params{K: 64, N: 16}).Convergence
	if got < 109 || got > 111 {
		t.Fatalf("prediction = %v, want ~110", got)
	}
	out := RenderCalibration(cal)
	if !strings.Contains(out, "fitted constant") || !strings.Contains(out, "Standard") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestCalibrateSkipsNonConverged(t *testing.T) {
	cell := Cell{Dataset: "x", Size: 64, Algorithm: "slate", Runs: 2, Agents: 4}
	cell.Iterations = summaryOf(10000, 10000) // never converged
	cal := CalibrateCostModel([]Cell{cell})
	if len(cal.Constant) != 0 {
		t.Fatalf("non-converged cell used: %v", cal.Constant)
	}
}
