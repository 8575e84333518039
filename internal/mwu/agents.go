package mwu

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/bandit"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
)

// This file contains the message-passing realization of the Distributed
// MWU: one goroutine per agent, no shared mutable state, all coordination
// over channels. It computes the same dynamics as the synchronous engine
// in distributed.go (which the experiment harness uses for speed) and
// exists to demonstrate — and test — the variant's headline property: the
// algorithm runs on distributed memory, with each agent holding O(1) state
// and communicating only point-to-point observation queries.
//
// Protocol per iteration (two phases, coordinator-barriered):
//
//  1. Observe: each agent flips μ; explorers pick a random option locally,
//     observers send a query to a uniformly random peer and await the
//     reply. While awaiting, agents keep serving incoming queries, and a
//     sender that finds a full query buffer serves its own inbox while
//     retrying, so cyclic waits cannot deadlock. Choices only change in
//     phase 2, so every query answered in phase 1 returns the settled
//     choice from the previous iteration — exactly the synchronous
//     semantics of Fig. 3.
//  2. Evaluate & adopt: each agent probes the oracle with its own RNG
//     stream and adopts the observed option with probability β on success
//     or α on failure, then reports its new choice to the coordinator,
//     which tracks popularity for the plurality convergence test.
//
// Resilience (DESIGN.md §10): with a fault injector in
// DistributedConfig.Faults, agents crash (the coordinator stops
// commanding them and removes them from the peer set every other agent
// observes), optionally restart after RestartAfter iterations with fresh
// O(1) state, and observation queries are dropped, delayed, or
// duplicated. Popularity — and the plurality convergence test — are
// tracked over the survivors, so the protocol degrades instead of
// wedging: this is the paper's Table I fault-tolerance claim, executable.
// Crash and message-fault decisions are stateless hashes of (agent,
// iteration), so a fixed seed yields the same fault schedule regardless
// of scheduling.

// mpQuery is an observation request; the reply carries the peer's current
// choice.
type mpQuery struct {
	reply chan int
}

// mpReport is an agent's end-of-phase message to the coordinator.
type mpReport struct {
	id     int
	choice int // new choice (phase 2) or observed option (phase 1)
	served int // queries served this phase (congestion accounting)
}

// mpCmd is a coordinator command: an opcode, the current iteration (the
// coordinate of every fault decision), and — for cmdObserve — the peer
// set to observe from this iteration. The slice is rebuilt by the
// coordinator when agents crash or restart and must be treated as
// read-only by agents; the command-channel send is the happens-before
// edge that publishes it.
type mpCmd struct {
	op    int
	iter  int
	peers []*mpAgent
}

// mpAgent is one distributed agent: O(1) algorithm state (its current
// choice), plus its channels and private RNG stream.
type mpAgent struct {
	id      int
	choice  int
	r       *rng.RNG
	queries chan mpQuery
	cmd     chan mpCmd // phase commands from the coordinator

	observedOption int // O_j for the current iteration
	served         int // queries answered since the last evaluate phase
}

const (
	cmdObserve = iota
	cmdEvaluate
	cmdRestart
	cmdStop
)

// MessagePassingResult extends RunResult with the message accounting the
// cost model consumes.
type MessagePassingResult struct {
	RunResult
	Metrics Metrics
	// Survivors is how many agents were alive when the run ended.
	Survivors int
}

// RunMessagePassing executes the Distributed MWU with one goroutine per
// agent. It honours the same configuration and convergence criterion as
// the synchronous engine, plus cfg.Faults for agent crashes/restarts and
// message faults. The seed fully determines all algorithmic randomness
// and the fault schedule; goroutine scheduling cannot affect results
// because choices are frozen during the observation phase. Cancelling the
// context stops the run at the next iteration boundary, returning the
// best-so-far partial result with Cancelled set; all agent goroutines are
// joined before return.
func RunMessagePassing(ctx context.Context, cfg DistributedConfig, o bandit.Oracle, seed *rng.RNG, maxIter int) (MessagePassingResult, error) {
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
	inj := cfg.Faults

	agents := make([]*mpAgent, n)
	reports := make(chan mpReport, n)
	var stats faults.Stats
	for j := 0; j < n; j++ {
		agents[j] = &mpAgent{
			id:     j,
			choice: j % cfg.K,
			r:      seed.Split(),
			// The query buffer absorbs bursts; the reply buffer holds 2 so
			// a duplicated query's second answer never blocks the peer.
			queries: make(chan mpQuery, 16),
			cmd:     make(chan mpCmd, 1),
		}
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for _, a := range agents {
		go func(a *mpAgent) {
			defer wg.Done()
			a.run(cfg, o, &stats, reports)
		}(a)
	}

	// alive is the coordinator's survivor set — the peer universe agents
	// observe from. downSince records the crash iteration of dead agents
	// for the restart schedule.
	alive := make([]*mpAgent, n)
	copy(alive, agents)
	downSince := make(map[*mpAgent]int)

	counts := make([]int, cfg.K)
	for _, a := range agents {
		counts[a.choice]++
	}
	var m Metrics
	m.MemoryFloats = 1
	tr := cfg.Trace
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

		// Lifecycle: restarts first (an agent that served its downtime
		// rejoins with fresh O(1) state), then this iteration's crashes.
		// Restart candidates are scanned in agent-ID order, NOT by ranging
		// over the downSince map: map order would let two agents restarting
		// on the same iteration rejoin `alive` in either order, changing
		// the peer set every observer samples from — a seed would no longer
		// pin the dynamics (or the trace).
		if inj.Enabled() {
			if cfg.Faults.Config().RestartAfter > 0 && len(downSince) > 0 {
				for _, a := range agents {
					since, down := downSince[a]
					if down && t-since >= cfg.Faults.Config().RestartAfter {
						a.cmd <- mpCmd{op: cmdRestart, iter: t}
						delete(downSince, a)
						alive = append(alive, a)
						stats.Restarts++
						if tr.Active() {
							tr.Emit(obs.Event{Type: obs.TypeRestart, Iter: t, Slot: a.id})
						}
					}
				}
			}
			kept := alive[:0]
			for _, a := range alive {
				if inj.AgentCrash(a.id, t) {
					downSince[a] = t
					stats.Crashes++
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
		}
		live := len(alive)

		// Phase 1: observe. Reports here only signal phase completion. The
		// observe command publishes this iteration's peer set.
		for _, a := range alive {
			a.cmd <- mpCmd{op: cmdObserve, iter: t, peers: alive}
		}
		for i := 0; i < live; i++ {
			<-reports
		}
		// Phase 2: evaluate and adopt. Reports carry the new choice and
		// the number of observation queries the agent answered this
		// iteration (its in-degree — the congestion of Table I).
		for _, a := range alive {
			a.cmd <- mpCmd{op: cmdEvaluate, iter: t}
		}
		for i := range counts {
			counts[i] = 0
		}
		congestion := 0
		messages := int64(0)
		for i := 0; i < live; i++ {
			rep := <-reports
			counts[rep.choice]++
			if rep.served > congestion {
				congestion = rep.served
			}
			messages += int64(rep.served)
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
	// Every agent — alive, crashed, or mid-restart-wait — still listens on
	// its command channel and must be stopped.
	for _, a := range agents {
		a.cmd <- mpCmd{op: cmdStop}
	}
	wg.Wait()

	lead := bestCount(counts)
	res.Choice = lead
	if live := len(alive); live > 0 {
		res.LeaderProb = float64(counts[lead]) / float64(live)
	}
	res.Survivors = len(alive)
	res.CPUIterations = m.CPUIterations
	m.Faults = stats
	res.Degraded = res.Cancelled || stats.Crashes > 0 || stats.MsgDropped > 0
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

// run is the agent goroutine body.
func (a *mpAgent) run(cfg DistributedConfig, o bandit.Oracle, stats *faults.Stats, reports chan<- mpReport) {
	replyCh := make(chan int, 2)
	for {
		c := a.waitCommand()
		switch c.op {
		case cmdStop:
			a.drainQueries()
			return
		case cmdRestart:
			// Fresh O(1) state, same identity and RNG stream: the restart
			// is a reboot, not a reincarnation.
			a.choice = a.id % cfg.K
			a.observedOption = a.choice
			a.served = 0
		case cmdObserve:
			if a.r.Float64() < cfg.Mu {
				a.observedOption = a.r.Intn(cfg.K)
			} else {
				peer := c.peers[a.r.Intn(len(c.peers))]
				fault := faults.MsgNone
				if cfg.Faults.Enabled() {
					fault = cfg.Faults.MessageFault(c.iter, a.id)
				}
				switch {
				case peer == a:
					a.observedOption = a.choice
					a.served++ // self-observation still counts as a lookup
				case fault == faults.MsgDrop:
					// The query is lost in transit: the peer never sees it,
					// no reply ever comes. The observer degrades to
					// re-observing its own current choice.
					atomic.AddInt64(&stats.Injected, 1)
					atomic.AddInt64(&stats.MsgDropped, 1)
					a.observedOption = a.choice
				default:
					if fault == faults.MsgDelay {
						// Late but within the phase barrier: semantically
						// invisible, only the ledger notices.
						atomic.AddInt64(&stats.Injected, 1)
						atomic.AddInt64(&stats.MsgDelayed, 1)
					}
					sends := 1
					if fault == faults.MsgDup {
						// The query is duplicated in transit: the peer
						// serves it twice (congestion doubles on that
						// edge) and the observer collects both replies.
						atomic.AddInt64(&stats.Injected, 1)
						atomic.AddInt64(&stats.MsgDuplicated, 1)
						sends = 2
					}
					q := mpQuery{reply: replyCh}
					for s := 0; s < sends; s++ {
						// Send while serving: never block on a full peer
						// inbox without draining our own, so query cycles
						// cannot deadlock.
					sendLoop:
						for {
							select {
							case peer.queries <- q:
								break sendLoop
							case in := <-a.queries:
								a.serve(in)
							}
						}
					}
					// Await the reply (both replies for a duplicated
					// query), still serving.
					for s := 0; s < sends; s++ {
					recvLoop:
						for {
							select {
							case a.observedOption = <-replyCh:
								break recvLoop
							case in := <-a.queries:
								a.serve(in)
							}
						}
					}
				}
			}
			// Report phase completion, then keep serving from waitCommand
			// until the evaluate command — peers may still query us.
			a.deliver(reports, mpReport{id: a.id})
		case cmdEvaluate:
			reward := o.Probe(a.observedOption, a.r)
			adopt := false
			if reward == 1 {
				adopt = a.r.Float64() < cfg.Beta
			} else {
				adopt = a.r.Float64() < cfg.Alpha
			}
			if adopt {
				a.choice = a.observedOption
			}
			a.deliver(reports, mpReport{id: a.id, choice: a.choice, served: a.served})
			a.served = 0
		}
	}
}

// serve answers one observation query.
func (a *mpAgent) serve(in mpQuery) {
	in.reply <- a.choice
	a.served++
}

// waitCommand blocks for the next coordinator command while serving
// incoming observation queries.
func (a *mpAgent) waitCommand() mpCmd {
	for {
		select {
		case c := <-a.cmd:
			return c
		case in := <-a.queries:
			a.serve(in)
		}
	}
}

// deliver sends a report to the coordinator, serving queries while the
// report channel is contended.
func (a *mpAgent) deliver(reports chan<- mpReport, rep mpReport) {
	for {
		select {
		case reports <- rep:
			return
		case in := <-a.queries:
			a.serve(in)
		}
	}
}

// drainQueries answers any stragglers before exiting (none should exist
// at stop time, but a blocked peer must never hang).
func (a *mpAgent) drainQueries() {
	for {
		select {
		case in := <-a.queries:
			in.reply <- a.choice
		default:
			return
		}
	}
}
