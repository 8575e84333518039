package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/mwu"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// FamiliesSpec configures experiment E12: every MWU realization run
// across the three non-paper scenario families — multi-hunk (multiple
// coordinated defect sites), drifting (the test suite changes mid-run
// on a deterministic schedule), and adversarial (congestion-priced
// probes). E12 is the stress companion to the Sec. IV-G tables: the
// paper's scenarios are single-site and stationary, and these families
// probe exactly the assumptions that setting bakes in.
type FamiliesSpec struct {
	// Profiles are the registry scenario profiles to run. The default
	// covers one profile per family: mh-pair, drift-grow, adv-mild.
	Profiles []string
	// Algorithms is the MWU realization row set. Default mwu.Names.
	Algorithms []string
	// Seeds is the number of independent replications per cell (the
	// scenario is fixed by its registry seed; replications re-draw the
	// mutation pool and the online search). Default 3.
	Seeds int
	// MaxIter is the update-cycle limit per run. Default 1500.
	MaxIter int
	// Workers is the probe evaluation width. Drift schedules are keyed
	// to cumulative probe counts, so this only affects wall-clock.
	// Default 4.
	Workers int
	// MaxX caps the composition-size arm space, for the same reason as
	// APRSpec.MaxX: measured safe density is zero beyond ~120 combined
	// mutations, so huge arm spaces only pay exploration cost.
	// Default 256.
	MaxX int
	// BaseSeed offsets replication seeds. Default 0xE12.
	BaseSeed uint64
}

func (s *FamiliesSpec) fill() {
	if len(s.Profiles) == 0 {
		s.Profiles = []string{"mh-pair", "drift-grow", "adv-mild"}
	}
	if len(s.Algorithms) == 0 {
		s.Algorithms = append([]string(nil), mwu.Names...)
	}
	if s.Seeds <= 0 {
		s.Seeds = 3
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 1500
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.MaxX <= 0 {
		s.MaxX = 256
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 0xE12
	}
}

// FamilyCell aggregates the replications of one (profile, algorithm)
// pair.
type FamilyCell struct {
	// Profile and Family identify the scenario; Algorithm is one of
	// mwu.Names.
	Profile, Family, Algorithm string

	// Runs and RepairedRuns count replications.
	Runs, RepairedRuns int
	// Iterations, Probes, and FitnessEvals aggregate the usual cost
	// currencies over all replications (limit runs included).
	Iterations, Probes, FitnessEvals stats.Summary
	// DriftSteps aggregates suite-drift steps actually applied per run.
	// Stationary families report zero; a drifting run that repairs
	// before a threshold reports fewer steps than scheduled.
	DriftSteps stats.Summary
	// CongestionCost aggregates the congestion-priced probe cost
	// (adversarial profiles only; zero elsewhere) and MaxLoad is the
	// highest realized single-arm load over all replications.
	CongestionCost stats.Summary
	MaxLoad        int64
}

// RunFamilies executes E12 and returns cells grouped by profile, then
// algorithm in spec order. Within one (profile, seed) replication the
// mutation pool is built once and shared across algorithms — the pool
// is immutable during the online phase, so sharing it changes nothing
// but wall-clock.
func RunFamilies(spec FamiliesSpec) ([]FamilyCell, error) {
	spec.fill()
	cells := make([]FamilyCell, 0, len(spec.Profiles)*len(spec.Algorithms))
	index := map[string]int{}
	ctx := context.Background()
	for _, name := range spec.Profiles {
		prof, err := scenario.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: families: %w", err)
		}
		sc := scenario.Generate(prof)
		maxX := prof.Options
		if maxX > spec.MaxX {
			maxX = spec.MaxX
		}
		for _, alg := range spec.Algorithms {
			cells = append(cells, FamilyCell{Profile: name, Family: prof.FamilyName(), Algorithm: alg})
			index[name+"\x00"+alg] = len(cells) - 1
		}
		for s := 0; s < spec.Seeds; s++ {
			seed := rng.New(spec.BaseSeed ^ (uint64(s+1) * 0x9e3779b97f4a7c15))
			pl := sc.BuildPoolStored(ctx, spec.Workers, seed.Split(), nil, nil)
			for _, alg := range spec.Algorithms {
				res, err := core.RepairWithAlgorithm(ctx, alg, pl, sc.Suite, seed.Split(), core.Config{
					MaxIter:          spec.MaxIter,
					Workers:          spec.Workers,
					MaxX:             maxX,
					Drift:            sc.Drift,
					CongestionLambda: prof.CongestionLambda,
				})
				if err != nil {
					return nil, fmt.Errorf("experiments: families: %s/%s: %w", name, alg, err)
				}
				cell := &cells[index[name+"\x00"+alg]]
				cell.Runs++
				if res.Repaired {
					cell.RepairedRuns++
				}
				cell.Iterations.Add(float64(res.Iterations))
				cell.Probes.Add(float64(res.Probes))
				cell.FitnessEvals.Add(float64(res.FitnessEvals))
				cell.DriftSteps.Add(float64(res.DriftSteps))
				cell.CongestionCost.Add(res.CongestionCost)
				if res.MaxLoad > cell.MaxLoad {
					cell.MaxLoad = res.MaxLoad
				}
			}
		}
	}
	return cells, nil
}

// RenderFamilies formats E12 as a text table: one block per profile,
// one row per algorithm. The reading the experiment is built to
// produce: multi-hunk profiles separate learners by how fast they find
// coordinated compositions, drifting profiles by how much a mid-run
// suite change costs them, and adversarial profiles by how evenly they
// spread load (same search, different congestion bill).
func RenderFamilies(spec FamiliesSpec, cells []FamilyCell) string {
	spec.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "E12: scenario families — %d profiles, %d seeds, max %d cycles\n",
		len(spec.Profiles), spec.Seeds, spec.MaxIter)
	fmt.Fprintf(&b, "%-14s %9s %9s %9s %9s %7s %11s %8s\n",
		"algorithm", "rep", "iters", "probes", "evals", "drift", "cong-cost", "max-load")
	last := ""
	for i := range cells {
		c := &cells[i]
		if c.Profile != last {
			fmt.Fprintf(&b, "-- %s (%s) --\n", c.Profile, c.Family)
			last = c.Profile
		}
		fmt.Fprintf(&b, "%-14s %6d/%-2d %9.0f %9.0f %9.0f %7.1f %11.0f %8d\n",
			c.Algorithm, c.RepairedRuns, c.Runs,
			c.Iterations.Mean(), c.Probes.Mean(), c.FitnessEvals.Mean(),
			c.DriftSteps.Mean(), c.CongestionCost.Mean(), c.MaxLoad)
	}
	return b.String()
}

// familyCellJSON is the stable export schema for -families -json; the
// `make scenarios` smoke decodes against it via benchjson
// -validate-families.
type familyCellJSON struct {
	Profile        string  `json:"profile"`
	Family         string  `json:"family"`
	Algorithm      string  `json:"algorithm"`
	Runs           int     `json:"runs"`
	RepairedRuns   int     `json:"repairedRuns"`
	ItersMean      float64 `json:"iterationsMean"`
	ProbesMean     float64 `json:"probesMean"`
	EvalsMean      float64 `json:"fitnessEvalsMean"`
	DriftStepsMean float64 `json:"driftStepsMean"`
	CongestionMean float64 `json:"congestionCostMean"`
	MaxLoad        int64   `json:"maxLoad"`
}

// WriteFamiliesJSON emits the cell set as a JSON array.
func WriteFamiliesJSON(w io.Writer, cells []FamilyCell) error {
	out := make([]familyCellJSON, len(cells))
	for i := range cells {
		c := &cells[i]
		out[i] = familyCellJSON{
			Profile:        c.Profile,
			Family:         c.Family,
			Algorithm:      c.Algorithm,
			Runs:           c.Runs,
			RepairedRuns:   c.RepairedRuns,
			ItersMean:      c.Iterations.Mean(),
			ProbesMean:     c.Probes.Mean(),
			EvalsMean:      c.FitnessEvals.Mean(),
			DriftStepsMean: c.DriftSteps.Mean(),
			CongestionMean: c.CongestionCost.Mean(),
			MaxLoad:        c.MaxLoad,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
