package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mwu"
	"repro/internal/wrs"
)

// layer names a span kind: one boundary between the benchmark and a
// package it calls, or a phase of the learner's update cycle.
type layer uint8

const (
	layerJob layer = iota
	layerRepair
	layerPoolBuild
	layerWarmStart
	layerRun
	layerCycle
	layerDraw
	layerProbePhase
	layerUpdate
	layerApply
	layerKey
	layerLookup
	layerStoreOpen
	layerStoreClose
	layerLate
	layerAdmit
	layerQueue
	layerExec
	numLayers
)

var layerNames = [numLayers]string{
	layerJob:        "job",
	layerRepair:     "repair",
	layerPoolBuild:  "pool.build",
	layerWarmStart:  "testsuite.warmstart",
	layerRun:        "mwu.run",
	layerCycle:      "mwu.cycle",
	layerDraw:       "mwu.draw",
	layerProbePhase: "mwu.probe_phase",
	layerUpdate:     "mwu.update",
	layerApply:      "mutation.apply",
	layerKey:        "testsuite.key",
	layerLookup:     "testsuite.lookup",
	layerStoreOpen:  "store.open",
	layerStoreClose: "store.close",
	layerLate:       "loadgen.late",
	layerAdmit:      "server.admit",
	layerQueue:      "server.queue",
	layerExec:       "server.exec",
}

// span is one timed interval of the traced pass. Times are nanoseconds
// since the tracer started. parent indexes the enclosing span, -1 for a
// root; job is the index of the job in its pass, -1 for work outside any
// job (store open and close).
type span struct {
	layer  layer
	job    int32
	parent int32
	start  int64
	end    int64
}

// tracer keeps the traced pass's spans in memory; they are written out,
// if at all, when the benchmark ends. Safe for concurrent use: probe
// workers record their spans while mwu.Run's loop records the cycle's.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall-clock instant (such as a daemon status timestamp) to
// the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// open starts a span that will have children and returns its index.
func (t *tracer) open(l layer, job, parent int, start int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: l, job: int32(job), parent: int32(parent), start: start, end: -1})
	return len(t.spans) - 1
}

// close ends a span started by open.
func (t *tracer) close(id int, end int64) {
	t.mu.Lock()
	t.spans[id].end = end
	t.mu.Unlock()
}

// add records a finished leaf span.
func (t *tracer) add(l layer, job, parent int, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{layer: l, job: int32(job), parent: int32(parent), start: start, end: end})
	t.mu.Unlock()
}

// snapshot returns the recorded spans; call once the pass has ended.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of it
// that the union of its children's intervals covers. Children may overlap
// (two probe workers under one probe phase) and are clipped to their
// parent, so no instant is subtracted twice and self time never goes
// negative.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	var kids []int
	for i, s := range spans {
		self[i] = s.end - s.start
		if s.parent >= 0 {
			kids = append(kids, i)
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		x, y := spans[kids[a]], spans[kids[b]]
		if x.parent != y.parent {
			return x.parent < y.parent
		}
		return x.start < y.start
	})
	for i := 0; i < len(kids); {
		p := spans[kids[i]].parent
		ps := spans[p]
		var covered int64
		curS, curE := int64(-1), int64(-1)
		for ; i < len(kids) && spans[kids[i]].parent == p; i++ {
			c := spans[kids[i]]
			s, e := max(c.start, ps.start), min(c.end, ps.end)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		covered += curE - curS
		self[p] -= covered
	}
	return self
}

// spanRecord is the on-disk form of a span, one JSON object per line.
type spanRecord struct {
	Name    string `json:"name"`
	Job     int32  `json:"job"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, s := range spans {
		rec := spanRecord{Name: layerNames[s.layer], Job: s.job, ID: i, Parent: s.parent, StartNs: s.start, EndNs: s.end}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// timedLearner decorates a learner with one span per update-cycle phase:
// the draw (Sample, or FreezeSampler for stream learners), the probe
// phase from the draw returning to Update being called (barrier wait
// included), and the update. The cycle span runs from one draw to the
// next, so its self time is the run loop's own work. Every method mwu.Run
// looks for is forwarded, so the run takes the same path as with the bare
// learner; stream learners get timedStreamLearner, the only wrapper that
// has FreezeSampler.
type timedLearner struct {
	mwu.Learner
	tr    *tracer
	job   int
	run   int
	cycle int
	// phase is the open probe-phase span, the parent of the spans the
	// probe workers record.
	phase atomic.Int64
}

// timeLearner wraps l for the traced pass; cycles become children of the
// run span.
func timeLearner(l mwu.Learner, tr *tracer, job, run int) (mwu.Learner, *timedLearner) {
	t := &timedLearner{Learner: l, tr: tr, job: job, run: run, cycle: -1}
	t.phase.Store(-1)
	if s, ok := l.(mwu.StreamSampler); ok {
		return &timedStreamLearner{timedLearner: t, stream: s}, t
	}
	return t, t
}

// beginCycle closes the previous cycle and opens the next one.
func (t *timedLearner) beginCycle() int64 {
	now := t.tr.now()
	if t.cycle >= 0 {
		t.tr.close(t.cycle, now)
	}
	t.cycle = t.tr.open(layerCycle, t.job, t.run, now)
	return now
}

// drawn records the draw and opens the probe phase.
func (t *timedLearner) drawn(start int64) {
	now := t.tr.now()
	t.tr.add(layerDraw, t.job, t.cycle, start, now)
	t.phase.Store(int64(t.tr.open(layerProbePhase, t.job, t.cycle, now)))
}

// updating closes the probe phase and returns the update's start.
func (t *timedLearner) updating() int64 {
	now := t.tr.now()
	t.tr.close(int(t.phase.Load()), now)
	return now
}

// finish closes the last cycle once mwu.Run has returned.
func (t *timedLearner) finish() {
	if t.cycle >= 0 {
		t.tr.close(t.cycle, t.tr.now())
		t.cycle = -1
	}
}

func (t *timedLearner) Sample() []int {
	start := t.beginCycle()
	arms := t.Learner.Sample()
	t.drawn(start)
	return arms
}

func (t *timedLearner) Update(arms []int, rewards []float64) {
	start := t.updating()
	t.Learner.Update(arms, rewards)
	t.tr.add(layerUpdate, t.job, t.cycle, start, t.tr.now())
}

// UpdateMissing forwards mwu.PartialUpdater; a learner without it gets
// Update, which is what mwu.Run itself falls back to.
func (t *timedLearner) UpdateMissing(arms []int, rewards []float64, missing []bool) {
	start := t.updating()
	if p, ok := t.Learner.(mwu.PartialUpdater); ok {
		p.UpdateMissing(arms, rewards, missing)
	} else {
		t.Learner.Update(arms, rewards)
	}
	t.tr.add(layerUpdate, t.job, t.cycle, start, t.tr.now())
}

// Autonomous forwards the learner's synchronization discipline.
func (t *timedLearner) Autonomous() bool {
	a, ok := t.Learner.(interface{ Autonomous() bool })
	return ok && a.Autonomous()
}

// timedStreamLearner is timedLearner for mwu.StreamSampler learners: the
// timed draw is the per-cycle freeze, and the per-slot draws happen on
// the probe workers inside the probe phase.
type timedStreamLearner struct {
	*timedLearner
	stream mwu.StreamSampler
}

func (t *timedStreamLearner) FreezeSampler() (wrs.Forkable, error) {
	start := t.beginCycle()
	f, err := t.stream.FreezeSampler()
	t.drawn(start)
	return f, err
}
