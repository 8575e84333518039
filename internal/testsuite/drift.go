// Suite drift: deterministic mid-run replacement of a Runner's suite.
//
// A drifting repair scenario changes its test suite while the online
// search runs — tests are added, reweighted, or the bug-inducing input
// moves. The cache-correctness hazard is that the fitness cache is keyed
// by program hash alone: every cached verdict is a pure function of
// (program, suite), so a suite change invalidates all of them, and a
// naive in-place swap of the suite would keep serving verdicts computed
// against the old tests. SetSuite is the only supported way to change a
// runner's suite: it swaps in an empty cache map, re-fingerprints for the
// persistent store (stale-fingerprint records then key nothing), and
// warm-starts again so only verdicts recorded against the NEW suite load.
//
// Determinism contract: drift schedules are expressed in cumulative probe
// counts, which are worker-count invariant (each update cycle issues
// exactly Agents() probes), and applied by the driver goroutine at
// update-cycle boundaries — never from a probe worker. A drifting run is
// therefore bit-identical at any worker count, exactly like the fault
// schedules in internal/faults.
package testsuite

// Drift step kinds, as carried in DriftStep.Kind and drift trace events.
const (
	// DriftTestsAdded grows the positive suite with a fresh regression
	// test.
	DriftTestsAdded = "tests-added"
	// DriftFaultMoved replaces the bug-inducing input with a different
	// one: the same defect manifests on a new input.
	DriftFaultMoved = "fault-moved"
	// DriftReweighted duplicates an existing positive test under a new
	// name, doubling its weight in the pass count (and changing the
	// suite fingerprint) without changing what any program computes.
	DriftReweighted = "reweighted"
)

// DriftStep is one scheduled suite change. The replacement suite is fully
// materialized at generation time: applying a step is a pointer swap plus
// a cache purge, never on-line test synthesis.
type DriftStep struct {
	// AfterProbes arms the step once the run's cumulative issued-probe
	// count reaches this threshold; the step fires at the next
	// update-cycle boundary. Probe counts are worker-invariant, so the
	// firing cycle is too.
	AfterProbes int64
	// Suite is the complete replacement suite for this phase.
	Suite *Suite
	// Kind labels the change (DriftTestsAdded, DriftFaultMoved,
	// DriftReweighted) for traces and reports.
	Kind string
}

// Drift is a deterministic drift schedule: steps in strictly increasing
// AfterProbes order, each carrying its materialized phase suite. A nil
// *Drift means a stationary suite.
type Drift struct {
	Steps []DriftStep
}

// Len returns the number of scheduled steps (0 for nil).
func (d *Drift) Len() int {
	if d == nil {
		return 0
	}
	return len(d.Steps)
}

// SetSuite replaces the runner's suite, purging every cached verdict:
// cache entries are pure functions of (program, suite), so none survives
// a suite change — serving one would be the stale-verdict bug this method
// exists to prevent. When a store is attached the runner re-fingerprints
// (subsequent verdicts persist under the new suite's identity) and
// warm-starts again, loading exactly the stored records whose fingerprint
// matches the new suite — never the old phase's. Returns the number of
// entries warm-started for the new suite (0 without a store).
//
// Evaluation counters are cumulative across the swap: Lookups() keeps its
// worker- and warmth-invariance, each phase simply re-pays (or reloads)
// its own verdicts. Like AttachStore and WarmStart, SetSuite must not be
// called concurrently with probes; drivers call it from the update-cycle
// boundary, where no probe is in flight.
func (r *Runner) SetSuite(s *Suite) int {
	r.mu.Lock()
	r.entries = make(map[uint64]*cacheEntry)
	r.mu.Unlock()
	r.suite = s
	if r.store == nil {
		return 0
	}
	r.suiteFP = s.Fingerprint()
	return r.WarmStart()
}
