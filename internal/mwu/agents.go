package mwu

import (
	"context"

	"repro/internal/bandit"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file runs the Distributed MWU as a message-passing protocol:
// agents with O(1) state that learn only through point-to-point
// observation queries, over a survivor set that crashes and lossy
// messages act on. The Fig. 3 dynamics (observe, adopt, popularity,
// plurality, congestion accounting) are Distributed's, in distributed.go;
// this file adds only what is specific to message passing:
//
//   - the survivor set: agents crash, and their vote leaves the
//     popularity counts with them; with RestartAfter set they restart
//     that many iterations later with fresh O(1) state, choice id mod K;
//   - message faults at the observe step: a dropped query is never
//     served and the observer falls back on its own choice, a delayed one
//     is only ledgered, a duplicated one is served twice;
//   - the distributed-mp trace: run_start, crash, restart, and a run_end
//     of kind "dead" when the whole population is lost.
//
// Popularity and the plurality test therefore run over the survivors, so
// the protocol degrades instead of wedging: the paper's Table I
// fault-tolerance claim, executable (DESIGN.md §10). Crash and
// message-fault decisions are stateless hashes of (agent, iteration), so
// a fixed seed yields the same fault schedule. With no injector every
// agent survives in ID order, and the run is the synchronous learner's
// under Run, byte for byte.

// survivors is a Distributed's message-passing fault state. Slot i of a
// cycle is agent alive[i].
type survivors struct {
	inj       *faults.Injector
	alive     []int // live agent IDs: the peer set observers sample from
	downSince []int // iteration agent j crashed; 0 while it is up
	iter      int
}

// MessagePassingResult extends RunResult with the message accounting the
// cost model consumes.
type MessagePassingResult struct {
	RunResult
	Metrics Metrics
	// Survivors is how many agents were alive when the run ended.
	Survivors int
}

// RunMessagePassing executes the Distributed MWU as a population of
// message-passing agents. It splits seed as callers of Run do: first for
// the learner, then for the probe streams. With a nil inj the run is
// therefore Run on NewDistributed(cfg, seed.Split()) with seed.Split():
// the same result, metrics and trace, run_start's algo aside. inj, when
// non-nil, injects agent crashes/restarts and message
// drop/delay/duplication (its probe-fault rates are unused); tr, when
// active, receives the run's event stream. Cancelling the context stops
// the run at the next iteration boundary, returning the best-so-far
// partial result with Cancelled set.
func RunMessagePassing(ctx context.Context, cfg DistributedConfig, o bandit.Oracle, seed *rng.RNG, maxIter int, inj *faults.Injector, tr *obs.Tracer) (MessagePassingResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	d, err := NewDistributed(cfg, seed.Split())
	if err != nil {
		return MessagePassingResult{}, err
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	n := d.cfg.PopSize
	d.mp = &survivors{inj: inj, alive: make([]int, n), downSince: make([]int, n)}
	for j := range d.mp.alive {
		d.mp.alive[j] = j
	}
	ev := newEvaluator(o, seed.Split(), 1)
	if tr.Active() {
		tr.Emit(obs.Event{Type: obs.TypeRunStart, Algo: "distributed-mp",
			K: d.cfg.K, Agents: n, N: int64(maxIter)})
	}

	var res MessagePassingResult
	dead := false
	for t := 1; t <= maxIter && !res.Converged; t++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		if tr.Active() {
			tr.Emit(obs.Event{Type: obs.TypeIterStart, Iter: t})
		}
		if dead = !d.lifecycle(t, tr); dead {
			break
		}
		arms := d.Sample()
		rewards, _ := ev.probeAll(t, arms)
		d.Update(arms, rewards)
		res.Iterations = t
		res.Converged = d.Converged()
		if tr.Active() {
			sampled := tr.Sampled(t)
			if sampled {
				emitProbes(tr, t, arms)
				emitProbeOutcomes(tr, t, arms, rewards, nil, nil, true)
			}
			emitUpdate(tr, t, rewards, nil)
			emitConv(tr, t, d, res.Converged)
			if sampled {
				emitState(tr, t, d, arms)
			}
			tr.Emit(obs.Event{Type: obs.TypeIterEnd, Iter: t})
		}
	}
	res.Choice = d.Leader()
	res.LeaderProb = d.LeaderProb()
	res.CPUIterations = d.metrics.CPUIterations
	res.Degraded = res.Cancelled || d.metrics.Faults.Crashes > 0 || d.metrics.Faults.MsgDropped > 0
	res.Metrics = d.metrics
	res.Survivors = len(d.mp.alive)
	if tr.Active() {
		kind := runEndKind(res.RunResult)
		if dead {
			kind = "dead"
		}
		tr.Emit(obs.Event{Type: obs.TypeRunEnd, Iter: res.Iterations,
			Kind: kind, Leader: res.Choice, Prob: res.LeaderProb})
	}
	return res, nil
}

// lifecycle applies iteration t's restarts, then its crashes, and reports
// whether any agent survived. Restart candidates are scanned in agent-ID
// order, so agents restarting on the same iteration rejoin the peer set
// in a seed-determined order.
func (d *Distributed) lifecycle(t int, tr *obs.Tracer) bool {
	s := d.mp
	s.iter = t
	if after := s.inj.Config().RestartAfter; after > 0 {
		for j, down := range s.downSince {
			if down > 0 && t-down >= after {
				// Fresh O(1) state, same identity: the restart is a
				// reboot, not a reincarnation.
				s.downSince[j] = 0
				d.choices[j] = j % d.cfg.K
				d.counts[d.choices[j]]++
				d.leaderValid = false
				s.alive = append(s.alive, j)
				d.metrics.Faults.Restarts++
				if tr.Active() {
					tr.Emit(obs.Event{Type: obs.TypeRestart, Iter: t, Slot: j})
				}
			}
		}
	}
	kept := s.alive[:0]
	for _, j := range s.alive {
		if !s.inj.AgentCrash(j, t) {
			kept = append(kept, j)
			continue
		}
		s.downSince[j] = t
		d.counts[d.choices[j]]--
		d.leaderValid = false
		d.metrics.Faults.Crashes++
		if tr.Active() {
			tr.Emit(obs.Event{Type: obs.TypeCrash, Iter: t, Slot: j})
		}
	}
	s.alive = kept
	return len(kept) > 0
}

// deliver carries slot i's observation query to peer slot h. It returns
// the agent whose choice the observer reads and how many copies of the
// query that agent serves: a dropped query is never served and the
// observer re-observes its own choice, a duplicated one is served twice.
// Self-observation sends no message, so no fault applies to it.
func (d *Distributed) deliver(i, h int) (int, int32) {
	s := d.mp
	a, p := s.alive[i], s.alive[h]
	if p == a {
		return a, 1
	}
	st := &d.metrics.Faults
	switch s.inj.MessageFault(s.iter, a) {
	case faults.MsgDrop:
		st.Injected++
		st.MsgDropped++
		return a, 0
	case faults.MsgDelay:
		// Late but within the phase: only the ledger notices.
		st.Injected++
		st.MsgDelayed++
	case faults.MsgDup:
		st.Injected++
		st.MsgDuplicated++
		return p, 2
	}
	return p, 1
}
