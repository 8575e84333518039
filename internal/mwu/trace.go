package mwu

import (
	"repro/internal/faults"
	"repro/internal/obs"
)

// This file is the Run driver's emission layer: it turns the round state
// the driver already holds (assignments, rewards, statuses, the
// evaluator's per-slot fault records) into obs events. Everything here
// runs on the driver goroutine between iterations — never inside a probe
// worker — and iterates slots in index order, which is what makes the
// event stream identical at any worker count.

// slotTrace is the per-slot fault/latency record one probe round leaves
// behind for the tracer: the faults injected into the slot (in attempt
// order) and the virtual tick at which the slot finally resolved.
type slotTrace struct {
	faults []faultRec
	tick   int
}

// faultRec is one injected fault at a (slot, attempt) site.
type faultRec struct {
	kind    string
	attempt int
}

// recFault appends one injected fault to the slot's record. Each slot is
// resolved by exactly one worker, so the per-slot append is race-free;
// the driver reads only after the round barrier.
func (e *evaluator) recFault(slot, attempt int, kind faults.Kind) {
	if e.recs != nil {
		e.recs[slot].faults = append(e.recs[slot].faults,
			faultRec{kind: kind.String(), attempt: attempt})
	}
}

// recTick records the virtual tick at which the slot resolved.
func (e *evaluator) recTick(slot, tick int) {
	if e.recs != nil {
		e.recs[slot].tick = tick
	}
}

// emitProbes announces this cycle's assignment, one probe event per slot.
// Called on sampled iterations only.
func emitProbes(tr *obs.Tracer, iter int, arms []int) {
	for i, a := range arms {
		tr.Emit(obs.Event{Type: obs.TypeProbe, Iter: iter, Slot: i, Arm: a})
	}
}

// emitProbeOutcomes walks the completed round in slot order and emits:
// fault events for every injected fault (always — fault activity is rare
// and is the whole point of a chaos trace), a recover event for slots
// that produced a reward despite faults, and — on sampled iterations —
// one probe_done per slot with its reward and virtual-tick latency. Kind
// distinguishes degraded completions ("missing", "unresolved").
func emitProbeOutcomes(tr *obs.Tracer, iter int, arms []int, rewards []float64,
	status []probeStatus, recs []slotTrace, sampled bool) {
	for i := range arms {
		var rec slotTrace
		if recs != nil {
			rec = recs[i]
		}
		for _, f := range rec.faults {
			tr.Emit(obs.Event{Type: obs.TypeFault, Iter: iter, Slot: i,
				Attempt: f.attempt, Kind: f.kind})
		}
		ok := status == nil || status[i] == probeOK
		if ok && len(rec.faults) > 0 {
			tr.Emit(obs.Event{Type: obs.TypeRecover, Iter: iter, Slot: i, Tick: rec.tick})
		}
		if !sampled {
			continue
		}
		e := obs.Event{Type: obs.TypeProbeDone, Iter: iter, Slot: i,
			Arm: arms[i], Value: rewards[i], Tick: rec.tick}
		if !ok {
			if status[i] == probeMissing {
				e.Kind = "missing"
			} else {
				e.Kind = "unresolved"
			}
		}
		tr.Emit(e)
	}
}

// emitUpdate summarizes the weight update the learner just consumed: how
// many slots actually delivered a reward and their summed reward.
func emitUpdate(tr *obs.Tracer, iter int, rewards []float64, status []probeStatus) {
	arrived := int64(0)
	sum := 0.0
	for i, r := range rewards {
		if status == nil || status[i] == probeOK {
			arrived++
			sum += r
		}
	}
	tr.Emit(obs.Event{Type: obs.TypeUpdate, Iter: iter, N: arrived, Value: sum})
}

// emitConv reports the per-iteration convergence check.
func emitConv(tr *obs.Tracer, iter int, l Learner, converged bool) {
	e := obs.Event{Type: obs.TypeConv, Iter: iter, Leader: l.Leader(), Prob: l.LeaderProb()}
	if converged {
		e.Kind = "converged"
	}
	tr.Emit(e)
}

// emitState samples the learner's internal distribution: entropy, leader
// share, support, the distinct options probed this cycle, and the
// log₂-share histogram. It reaches the distribution through the optional
// Weights/Popularity accessors so no Learner interface change is needed;
// a learner offering neither still yields the leader fields.
func emitState(tr *obs.Tracer, iter int, l Learner, arms []int) {
	e := obs.Event{Type: obs.TypeState, Iter: iter,
		Leader: l.Leader(), Prob: l.LeaderProb(), N: int64(obs.Distinct(arms))}
	switch v := l.(type) {
	case interface{ Weights() []float64 }:
		w := v.Weights()
		e.Entropy = obs.Entropy(w)
		e.Support = obs.Support(w)
		e.Hist = obs.ShareHist(w)
	case interface{ Popularity() []int }:
		c := v.Popularity()
		e.Entropy = obs.Entropy(c)
		e.Support = obs.Support(c)
		e.Hist = obs.ShareHist(c)
	}
	tr.Emit(e)
}

// runEndKind names the reason a run ended, for the run_end event.
// Converged wins over Stopped when both hold on the final cycle.
func runEndKind(res RunResult) string {
	switch {
	case res.Err != nil:
		return "error"
	case res.Cancelled:
		return "cancelled"
	case res.Converged:
		return "converged"
	case res.Stopped:
		return "stopped"
	default:
		return "maxiter"
	}
}
