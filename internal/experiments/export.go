package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV emits the cell set as CSV with one row per (dataset,
// algorithm) cell — the machine-readable companion of the rendered
// tables, suitable for external plotting.
func WriteCSV(w io.Writer, cells []Cell, maxIter int) error {
	cw := csv.NewWriter(w)
	header := []string{
		"dataset", "kind", "size", "algorithm", "intractable",
		"runs", "converged_runs",
		"iterations_mean", "iterations_std",
		"accuracy_mean", "accuracy_std",
		"cpu_iterations_mean", "cpu_iterations_std",
		"congestion_mean", "memory_floats", "agents",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 8, 64) }
	for i := range cells {
		c := &cells[i]
		row := []string{
			c.Dataset, string(c.Kind), strconv.Itoa(c.Size), c.Algorithm,
			strconv.FormatBool(c.Intractable),
			strconv.Itoa(c.Runs), strconv.Itoa(c.ConvergedRuns),
			f(c.Iterations.Mean()), f(c.Iterations.StdDev()),
			f(c.Accuracy.Mean()), f(c.Accuracy.StdDev()),
			f(c.CPUIterations.Mean()), f(c.CPUIterations.StdDev()),
			f(c.Congestion.Mean()), strconv.FormatInt(c.MemoryFloats, 10), strconv.Itoa(c.Agents),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// cellJSON is the serialized form of one cell.
type cellJSON struct {
	Dataset       string  `json:"dataset"`
	Kind          string  `json:"kind"`
	Size          int     `json:"size"`
	Algorithm     string  `json:"algorithm"`
	Intractable   bool    `json:"intractable"`
	Runs          int     `json:"runs"`
	ConvergedRuns int     `json:"convergedRuns"`
	ItersMean     float64 `json:"iterationsMean"`
	ItersStd      float64 `json:"iterationsStd"`
	AccMean       float64 `json:"accuracyMean"`
	AccStd        float64 `json:"accuracyStd"`
	CPUMean       float64 `json:"cpuIterationsMean"`
	CongMean      float64 `json:"congestionMean"`
	MemoryFloats  int64   `json:"memoryFloats"`
	Agents        int     `json:"agents"`
}

// WriteJSON emits the cell set as a JSON array.
func WriteJSON(w io.Writer, cells []Cell) error {
	out := make([]cellJSON, len(cells))
	for i := range cells {
		c := &cells[i]
		out[i] = cellJSON{
			Dataset:       c.Dataset,
			Kind:          string(c.Kind),
			Size:          c.Size,
			Algorithm:     c.Algorithm,
			Intractable:   c.Intractable,
			Runs:          c.Runs,
			ConvergedRuns: c.ConvergedRuns,
			ItersMean:     c.Iterations.Mean(),
			ItersStd:      c.Iterations.StdDev(),
			AccMean:       c.Accuracy.Mean(),
			AccStd:        c.Accuracy.StdDev(),
			CPUMean:       c.CPUIterations.Mean(),
			CongMean:      c.Congestion.Mean(),
			MemoryFloats:  c.MemoryFloats,
			Agents:        c.Agents,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// aprRowJSON is the stable export schema for -apr -json. Every field is a
// function of the spec, so the export is byte-identical at any worker
// count: the goroutine-scheduling counters of the fitness cache (dedup
// suppressed, cache-lock contention) stay out of it.
type aprRowJSON struct {
	Scenario         string `json:"scenario"`
	Language         string `json:"language"`
	MWRepaired       bool   `json:"mwRepaired"`
	MWIterations     int    `json:"mwIterations"`
	MWFitnessEvals   int64  `json:"mwFitnessEvals"`
	MWCacheHits      int64  `json:"mwCacheHits"`
	MWLearnedArm     int    `json:"mwLearnedArm"`
	MWAgents         int    `json:"mwAgents"`
	GenProgRepaired  bool   `json:"genprogRepaired"`
	GenProgEvals     int64  `json:"genprogEvals"`
	RSRepairRepaired bool   `json:"rsrepairRepaired"`
	RSRepairEvals    int64  `json:"rsrepairEvals"`
	AERepaired       bool   `json:"aeRepaired"`
	AEEvals          int64  `json:"aeEvals"`
}

// WriteAPRJSON emits the Sec. IV-G comparison as a JSON array of rows.
func WriteAPRJSON(w io.Writer, s *APRSummary) error {
	out := make([]aprRowJSON, len(s.Rows))
	for i := range s.Rows {
		r := &s.Rows[i]
		out[i] = aprRowJSON{
			Scenario:         r.Scenario,
			Language:         r.Language,
			MWRepaired:       r.MWRepaired,
			MWIterations:     r.MWIterations,
			MWFitnessEvals:   r.MWFitnessEvals,
			MWCacheHits:      r.MWCacheHits,
			MWLearnedArm:     r.MWLearnedArm,
			MWAgents:         r.MWAgents,
			GenProgRepaired:  r.GenProg.Repaired,
			GenProgEvals:     r.GenProg.FitnessEvals,
			RSRepairRepaired: r.RSRepair.Repaired,
			RSRepairEvals:    r.RSRepair.FitnessEvals,
			AERepaired:       r.AE.Repaired,
			AEEvals:          r.AE.FitnessEvals,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteFigureCSV emits Fig. 4a/4b data as CSV (x, safe, unvetted,
// repair).
func WriteFigureCSV(w io.Writer, d *FigureData) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "safe_density", "unvetted_density", "repair_density"}); err != nil {
		return err
	}
	for i, x := range d.Xs {
		row := []string{
			strconv.Itoa(x),
			fmt.Sprintf("%g", d.SafeDensity[i]),
			fmt.Sprintf("%g", d.UnvettedDensity[i]),
			fmt.Sprintf("%g", d.RepairDensity[i]),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
