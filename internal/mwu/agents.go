package mwu

import (
	"context"

	"repro/internal/bandit"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file contains the message-passing realization of the Distributed
// MWU: agents with no shared mutable state, each holding O(1) algorithm
// state and its own RNG stream, that learn only through point-to-point
// observation queries. It computes the same dynamics as the synchronous
// engine in distributed.go (which the experiment harness uses for the
// fault-free tables) and exists to demonstrate — and test — the variant's
// headline property: the algorithm runs on distributed memory, and it
// survives agent crashes and lost messages.
//
// One coordinator loop drives the agents. Per iteration (two phases):
//
//  1. Observe: each agent flips μ; explorers pick a random option, the
//     rest query a uniformly random live peer for its choice. Choices only
//     change in phase 2, so every query returns the settled choice from
//     the previous iteration — exactly the synchronous semantics of
//     Fig. 3. The peer counts the queries it serves (its in-degree, the
//     congestion of Table I).
//  2. Evaluate & adopt: each agent probes the oracle with its own RNG
//     stream and adopts the observed option with probability β on success
//     or α on failure; the coordinator tallies popularity for the
//     plurality convergence test.
//
// Because each agent draws only from its own stream and reads only
// frozen choices, the order in which agents act within a phase cannot
// change the result: a run of real processes exchanging these messages
// would compute the same trajectory.
//
// Resilience (DESIGN.md §10): with a fault injector, agents crash (they
// leave the peer set every other agent observes), optionally restart
// after RestartAfter iterations with fresh O(1) state, and observation
// queries are dropped, delayed, or duplicated. Popularity — and the
// plurality convergence test — are tracked over the survivors, so the
// protocol degrades instead of wedging: this is the paper's Table I
// fault-tolerance claim, executable. Crash and message-fault decisions
// are stateless hashes of (agent, iteration), so a fixed seed yields the
// same fault schedule.

// mpAgent is one distributed agent: O(1) algorithm state (its current
// choice) plus its private RNG stream.
type mpAgent struct {
	id     int
	choice int
	r      *rng.RNG

	observedOption int // O_j for the current iteration
	served         int // queries answered since the last evaluate phase
	downSince      int // iteration the agent crashed; 0 while it is up
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
// message-passing agents. It honours the same configuration and
// convergence criterion as the synchronous engine. inj, when non-nil,
// injects agent crashes/restarts and message drop/delay/duplication; tr,
// when active, receives the protocol's event stream: run/iteration
// brackets, agent crash/restart lifecycle, convergence checks, and
// sampled population state. The seed fully determines all algorithmic
// randomness and the fault schedule. Cancelling the context stops the run
// at the next iteration boundary, returning the best-so-far partial
// result with Cancelled set.
func RunMessagePassing(ctx context.Context, cfg DistributedConfig, o bandit.Oracle, seed *rng.RNG, maxIter int, inj *faults.Injector, tr *obs.Tracer) (MessagePassingResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.prepare(); err != nil {
		return MessagePassingResult{}, err
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	n := cfg.PopSize
	restartAfter := inj.Config().RestartAfter

	agents := make([]*mpAgent, n)
	counts := make([]int, cfg.K)
	for j := range agents {
		agents[j] = &mpAgent{id: j, choice: j % cfg.K, r: seed.Split()}
		counts[j%cfg.K]++
	}
	// alive is the survivor set — the peer universe agents observe from.
	alive := append([]*mpAgent(nil), agents...)
	var m Metrics
	m.MemoryFloats = 1
	if tr.Active() {
		tr.Emit(obs.Event{Type: obs.TypeRunStart, Algo: "distributed-mp",
			K: cfg.K, Agents: n, N: int64(maxIter)})
	}

	res := MessagePassingResult{}
	converged := false
	dead := false
	for t := 1; t <= maxIter && !converged; t++ {
		if ctx.Err() != nil {
			res.Cancelled = true
			break
		}
		if tr.Active() {
			tr.Emit(obs.Event{Type: obs.TypeIterStart, Iter: t})
		}

		// Lifecycle: restarts first, then this iteration's crashes.
		// Restart candidates are scanned in agent-ID order, so agents
		// restarting on the same iteration rejoin `alive` — the peer set
		// every observer samples from — in a seed-determined order.
		if restartAfter > 0 {
			for _, a := range agents {
				if a.downSince > 0 && t-a.downSince >= restartAfter {
					// Fresh O(1) state, same identity and RNG stream: the
					// restart is a reboot, not a reincarnation.
					a.downSince = 0
					a.choice = a.id % cfg.K
					a.served = 0
					alive = append(alive, a)
					m.Faults.Restarts++
					if tr.Active() {
						tr.Emit(obs.Event{Type: obs.TypeRestart, Iter: t, Slot: a.id})
					}
				}
			}
		}
		kept := alive[:0]
		for _, a := range alive {
			if inj.AgentCrash(a.id, t) {
				a.downSince = t
				m.Faults.Crashes++
				if tr.Active() {
					tr.Emit(obs.Event{Type: obs.TypeCrash, Iter: t, Slot: a.id})
				}
				continue
			}
			kept = append(kept, a)
		}
		alive = kept
		if len(alive) == 0 {
			// Total population loss: nothing left to run the protocol.
			dead = true
			break
		}
		live := len(alive)

		// Phase 1: observe.
		for _, a := range alive {
			if a.r.Float64() < cfg.Mu {
				a.observedOption = a.r.Intn(cfg.K)
				continue
			}
			peer := alive[a.r.Intn(live)]
			switch fault := inj.MessageFault(t, a.id); {
			case peer == a:
				a.observedOption = a.choice
				a.served++ // self-observation still counts as a lookup
			case fault == faults.MsgDrop:
				// The query is lost in transit: the peer never sees it and
				// no reply comes. The observer degrades to re-observing its
				// own current choice.
				m.Faults.Injected++
				m.Faults.MsgDropped++
				a.observedOption = a.choice
			default:
				peer.served++
				switch fault {
				case faults.MsgDelay:
					// Late but within the phase: semantically invisible,
					// only the ledger notices.
					m.Faults.Injected++
					m.Faults.MsgDelayed++
				case faults.MsgDup:
					// Duplicated in transit: the peer serves it twice
					// (congestion doubles on that edge).
					m.Faults.Injected++
					m.Faults.MsgDuplicated++
					peer.served++
				}
				a.observedOption = peer.choice
			}
		}
		// Phase 2: evaluate and adopt, then tally the new choices and the
		// queries each agent answered this iteration.
		for i := range counts {
			counts[i] = 0
		}
		congestion := 0
		messages := int64(0)
		for _, a := range alive {
			var adopt bool
			if o.Probe(a.observedOption, a.r) == 1 {
				adopt = a.r.Float64() < cfg.Beta
			} else {
				adopt = a.r.Float64() < cfg.Alpha
			}
			if adopt {
				a.choice = a.observedOption
			}
			counts[a.choice]++
			if a.served > congestion {
				congestion = a.served
			}
			messages += int64(a.served)
			a.served = 0
		}
		m.recordIteration(live, congestion, messages)
		res.Iterations = t

		// Popularity — and the plurality test — run over the survivors:
		// a crashed agent's vote is gone, not frozen.
		lead := bestCount(counts)
		if float64(counts[lead]) >= cfg.Plurality*float64(live) {
			converged = true
			res.Converged = true
		}
		if tr.Active() {
			tr.Emit(obs.Event{Type: obs.TypeUpdate, Iter: t, N: int64(live), Value: float64(messages)})
			e := obs.Event{Type: obs.TypeConv, Iter: t, Leader: lead,
				Prob: float64(counts[lead]) / float64(live)}
			if converged {
				e.Kind = "converged"
			}
			tr.Emit(e)
			if tr.Sampled(t) {
				tr.Emit(obs.Event{Type: obs.TypeState, Iter: t, Leader: lead,
					Prob:    float64(counts[lead]) / float64(live),
					Entropy: obs.Entropy(counts), Support: obs.Support(counts),
					Hist: obs.ShareHist(counts), N: int64(live)})
			}
			tr.Emit(obs.Event{Type: obs.TypeIterEnd, Iter: t})
		}
	}
	lead := bestCount(counts)
	res.Choice = lead
	if live := len(alive); live > 0 {
		res.LeaderProb = float64(counts[lead]) / float64(live)
	}
	res.Survivors = len(alive)
	res.CPUIterations = m.CPUIterations
	res.Degraded = res.Cancelled || m.Faults.Crashes > 0 || m.Faults.MsgDropped > 0
	res.Metrics = m
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

func bestCount(counts []int) int {
	best := 0
	for i, c := range counts {
		if c > counts[best] {
			best = i
		}
	}
	return best
}
