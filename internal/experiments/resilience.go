package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/bandit"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/mwu"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// ResilienceSpec configures experiment E11: convergence and accuracy
// under injected evaluation faults, with and without degradation
// policies. It exercises the Table I claim the fault-free tables cannot:
// Standard's full-synchronization barrier makes it fragile (one silent
// fault stalls the whole cycle), while Distributed's autonomous agents
// degrade gracefully.
type ResilienceSpec struct {
	// Dataset is the single instance to run on. Default "unimodal256".
	Dataset string
	// FaultRates are the base fault rates swept (faults.Uniform scales the
	// per-kind probabilities from each). Default {0, 0.02, 0.05, 0.1, 0.2}.
	FaultRates []float64
	// Seeds is the number of independent replications per cell. Default 5.
	Seeds int
	// MaxIter is the update-cycle limit. Default 1500.
	MaxIter int
	// Workers is the probe evaluation width. The fault schedule is
	// worker-count invariant, so this only affects wall-clock. Default 4.
	Workers int
	// BaseSeed offsets replication seeds. Default 0xE11.
	BaseSeed uint64
	// StragglerCutoff is the managed-mode straggler cutoff in virtual
	// ticks. Default 400.
	StragglerCutoff int
	// Trace, when active, receives every replication's iteration-level
	// event stream, each scoped to a cell/seed run label. E11 runs its
	// cells sequentially, so the scoped streams share one sink without
	// interleaving and the combined trace is seed-deterministic.
	Trace *obs.Tracer
}

func (s *ResilienceSpec) fill() {
	if s.Dataset == "" {
		s.Dataset = "unimodal256"
	}
	if len(s.FaultRates) == 0 {
		s.FaultRates = []float64{0, 0.02, 0.05, 0.1, 0.2}
	}
	if s.Seeds <= 0 {
		s.Seeds = 5
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 1500
	}
	if s.Workers <= 0 {
		s.Workers = 4
	}
	if s.BaseSeed == 0 {
		s.BaseSeed = 0xE11
	}
	if s.StragglerCutoff <= 0 {
		s.StragglerCutoff = 400
	}
}

// Resilience run modes.
const (
	// ModeRaw injects faults with no degradation policies: silent faults
	// stall barriered learners.
	ModeRaw = "raw"
	// ModeManaged arms the default Timeout/Retry/Hedge policies plus a
	// straggler cutoff, converting stalls into importance-corrected
	// partial updates.
	ModeManaged = "managed"
)

// ResilienceCell aggregates the replications of one (algorithm, mode,
// fault-rate) triple.
type ResilienceCell struct {
	// Algorithm is one of mwu.Names, or "distributed-mp" for the
	// message-passing engine (mwu.RunMessagePassing, whose faults are
	// agent crashes and message faults rather than probe faults).
	Algorithm string
	// Mode is ModeRaw or ModeManaged.
	Mode string
	// FaultRate is the base rate passed to faults.Uniform.
	FaultRate float64

	// Runs and ConvergedRuns count replications.
	Runs, ConvergedRuns int
	// DegradedRuns counts replications where faults left a mark.
	DegradedRuns int
	// Iterations aggregates update cycles until convergence (limit runs
	// contribute MaxIter). For barriered learners under raw faults this
	// includes stalled cycles — latency burned at the barrier.
	Iterations stats.Summary
	// Accuracy aggregates percent-of-hindsight-best of the final choice.
	Accuracy stats.Summary
	// Faults is the summed resilience ledger over all replications.
	Faults faults.Stats
	// Survivors is the mean surviving-agent count at run end
	// (message-passing rows only; 0 elsewhere).
	Survivors stats.Summary
}

// resilienceAlgorithms is the E11 row set: the three synchronous-engine
// learners plus the message-passing Distributed runtime.
var resilienceAlgorithms = []string{"standard", "slate", "distributed", "distributed-mp"}

// RunResilience executes E11 and returns cells grouped by fault rate,
// then algorithm, then mode (raw before managed). Message-passing
// configuration errors — the one engine whose runner returns one — are
// propagated, not swallowed.
func RunResilience(spec ResilienceSpec) ([]ResilienceCell, error) {
	spec.fill()
	ds, err := dataset.Get(spec.Dataset)
	if err != nil {
		return nil, err
	}
	var cells []ResilienceCell
	for _, rate := range spec.FaultRates {
		for _, alg := range resilienceAlgorithms {
			modes := []string{ModeRaw, ModeManaged}
			if alg == "distributed-mp" {
				// The message-passing engine has no probe policies to arm;
				// its degradation (crash survival, drop fallback) is built
				// into the protocol, so one mode covers it.
				modes = []string{ModeRaw}
			}
			for _, mode := range modes {
				cell, err := runResilienceCell(alg, mode, rate, ds, spec)
				if err != nil {
					return nil, err
				}
				cells = append(cells, cell)
			}
		}
	}
	return cells, nil
}

func runResilienceCell(alg, mode string, rate float64, ds *dataset.Dataset, spec ResilienceSpec) (ResilienceCell, error) {
	cell := ResilienceCell{Algorithm: alg, Mode: mode, FaultRate: rate}
	for s := 0; s < spec.Seeds; s++ {
		seed := rng.New(spec.BaseSeed ^ (uint64(s+1) * 0x9e3779b97f4a7c15))
		faultSeed := spec.BaseSeed + uint64(s)*1000003 + uint64(rate*1e6)
		var inj *faults.Injector
		if rate > 0 {
			inj = faults.New(faults.Uniform(faultSeed, rate))
		}
		problem := bandit.NewProblem(ds.Dist)
		tr := spec.Trace.Scoped(fmt.Sprintf("%s/%s/rate%g/seed%d", alg, mode, rate, s))

		var res mwu.RunResult
		var ledger faults.Stats
		if alg == "distributed-mp" {
			// RunMessagePassing splits seed as the branch below does, so
			// its fault-free runs are the distributed row's.
			mp, err := mwu.RunMessagePassing(context.Background(), mwu.DistributedConfig{K: ds.Size},
				problem, seed, spec.MaxIter, inj, tr)
			if err != nil {
				return cell, fmt.Errorf("resilience: %s at rate %g: %w", alg, rate, err)
			}
			res, ledger = mp.RunResult, mp.Metrics.Faults
			cell.Survivors.Add(float64(mp.Survivors))
		} else {
			learner, err := mwu.NewLearner(mwu.Config{Algorithm: alg, K: ds.Size}, seed.Split())
			if err != nil {
				return cell, fmt.Errorf("resilience: %s at rate %g: %w", alg, rate, err)
			}
			runCfg := mwu.RunConfig{
				MaxIter: spec.MaxIter,
				Workers: spec.Workers,
				Faults:  inj,
				Trace:   tr,
			}
			if mode == ModeManaged {
				runCfg.Policies = faults.DefaultPolicies()
				runCfg.StragglerCutoff = spec.StragglerCutoff
			}
			res = mwu.Run(context.Background(), learner, problem, seed.Split(), runCfg)
			ledger = learner.Metrics().Faults
		}
		cell.Runs++
		if res.Converged {
			cell.ConvergedRuns++
		}
		if res.Degraded {
			cell.DegradedRuns++
		}
		cell.Iterations.Add(float64(res.Iterations))
		cell.Accuracy.Add(problem.Accuracy(res.Choice))
		cell.Faults.Merge(ledger)
	}
	return cell, nil
}

// RenderResilience formats E11 as a text table: one block per fault
// rate, one row per (algorithm, mode). The reading the experiment is
// built to produce: as the rate climbs, Standard-raw's converged column
// hits zero while its stalled-cycles column explodes, Distributed keeps
// converging with a handful of missing rewards, and the managed rows
// rescue the barriered learners at the price of some dropped stragglers.
func RenderResilience(spec ResilienceSpec, cells []ResilienceCell) string {
	spec.fill()
	var b strings.Builder
	fmt.Fprintf(&b, "E11: resilience under injected faults — %s, %d seeds, max %d cycles\n",
		spec.Dataset, spec.Seeds, spec.MaxIter)
	fmt.Fprintf(&b, "%-16s %-8s %9s %7s %9s %7s %9s %9s %9s %9s\n",
		"algorithm", "mode", "conv", "degr", "iters", "acc%", "stalled", "missing", "retries", "crashes")
	last := -1.0
	for i := range cells {
		c := &cells[i]
		if c.FaultRate != last {
			fmt.Fprintf(&b, "-- fault rate %g --\n", c.FaultRate)
			last = c.FaultRate
		}
		fmt.Fprintf(&b, "%-16s %-8s %6d/%-2d %7d %9.0f %7.1f %9d %9d %9d %9d\n",
			c.Algorithm, c.Mode, c.ConvergedRuns, c.Runs, c.DegradedRuns,
			c.Iterations.Mean(), c.Accuracy.Mean(),
			c.Faults.StalledCycles, c.Faults.Missing, c.Faults.Retries, c.Faults.Crashes)
	}
	return b.String()
}

// resilienceCellJSON is the stable export schema for -resilience -json;
// the CI smoke check decodes against it.
type resilienceCellJSON struct {
	Algorithm     string  `json:"algorithm"`
	Mode          string  `json:"mode"`
	FaultRate     float64 `json:"faultRate"`
	Runs          int     `json:"runs"`
	ConvergedRuns int     `json:"convergedRuns"`
	DegradedRuns  int     `json:"degradedRuns"`
	ItersMean     float64 `json:"iterationsMean"`
	AccMean       float64 `json:"accuracyMean"`
	Injected      int64   `json:"faultsInjected"`
	StalledCycles int64   `json:"stalledCycles"`
	Missing       int64   `json:"missing"`
	Retries       int64   `json:"retries"`
	Timeouts      int64   `json:"timeouts"`
	HedgesWon     int64   `json:"hedgesWon"`
	Crashes       int64   `json:"crashes"`
	Restarts      int64   `json:"restarts"`
	MsgDropped    int64   `json:"msgDropped"`
	SurvivorsMean float64 `json:"survivorsMean"`
}

// WriteResilienceJSON emits the cell set as a JSON array.
func WriteResilienceJSON(w io.Writer, cells []ResilienceCell) error {
	out := make([]resilienceCellJSON, len(cells))
	for i := range cells {
		c := &cells[i]
		out[i] = resilienceCellJSON{
			Algorithm:     c.Algorithm,
			Mode:          c.Mode,
			FaultRate:     c.FaultRate,
			Runs:          c.Runs,
			ConvergedRuns: c.ConvergedRuns,
			DegradedRuns:  c.DegradedRuns,
			ItersMean:     c.Iterations.Mean(),
			AccMean:       c.Accuracy.Mean(),
			Injected:      c.Faults.Injected,
			StalledCycles: c.Faults.StalledCycles,
			Missing:       c.Faults.Missing,
			Retries:       c.Faults.Retries,
			Timeouts:      c.Faults.Timeouts,
			HedgesWon:     c.Faults.HedgesWon,
			Crashes:       c.Faults.Crashes,
			Restarts:      c.Faults.Restarts,
			MsgDropped:    c.Faults.MsgDropped,
			SurvivorsMean: c.Survivors.Mean(),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
