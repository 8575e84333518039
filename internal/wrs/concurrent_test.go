package wrs

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/rng"
)

// buildShapes are the weight-vector shapes the construction cross-checks
// sweep: singletons, uniform (all-heavy), zero-holes, heavy skew, random.
func buildShapes() map[string][]float64 {
	shapes := map[string][]float64{
		"singleton": {3.5},
		"pair":      {1, 2},
		"uniform16": make([]float64, 16),
		"random64":  testWeights(64, 7),
		"holes1000": testWeights(1000, 11),
		"big16384":  testWeights(16384, 13),
		"skew":      make([]float64, 257),
	}
	for i := range shapes["uniform16"] {
		shapes["uniform16"][i] = 2
	}
	for i := range shapes["skew"] {
		shapes["skew"][i] = 1e-9
	}
	shapes["skew"][100] = 1e9
	return shapes
}

// referenceAlias builds the table from the closed forms its doc states,
// each column solved on its own over the lights' deficit prefix sums dpre
// and the heavies' surplus prefix sums spre, with no sweep order at all.
func referenceAlias(w []float64) ([]float64, []int32) {
	n := len(w)
	total := 0.0
	for _, wi := range w {
		total += wi
	}
	mult := float64(n) / total
	scaled := make([]float64, n)
	var lights, heavies []int
	for i, wi := range w {
		scaled[i] = wi * mult
		if scaled[i] < 1 {
			lights = append(lights, i)
		} else {
			heavies = append(heavies, i)
		}
	}
	dpre := make([]float64, len(lights)+1) // dpre[i]: deficit of lights[:i]
	for i, l := range lights {
		dpre[i+1] = dpre[i] + (1 - scaled[l])
	}
	spre := make([]float64, len(heavies)) // spre[j]: surplus of heavies[:j+1]
	run := 0.0
	for j, h := range heavies {
		run += scaled[h] - 1
		spre[j] = run
	}
	prob, alias := make([]float64, n), make([]int32, n)
	for i, l := range lights {
		j := sort.Search(len(spre), func(j int) bool { return spre[j] >= dpre[i] })
		if j == len(spre) {
			prob[l], alias[l] = 1, int32(l)
		} else {
			prob[l], alias[l] = scaled[l], int32(heavies[j])
		}
	}
	for j, h := range heavies {
		i := sort.Search(len(dpre), func(i int) bool { return dpre[i] > spre[j] })
		if i == len(dpre) || j == len(heavies)-1 {
			prob[h], alias[h] = 1, int32(h)
		} else {
			prob[h], alias[h] = spre[j]+1-dpre[i], int32(heavies[j+1])
		}
	}
	return prob, alias
}

// TestAliasBuildMatchesReference is the construction cross-check: the
// one-pass sweep must produce the closed-form table bit for bit on every
// shape.
func TestAliasBuildMatchesReference(t *testing.T) {
	for name, w := range buildShapes() {
		a := mustAlias(t, w)
		prob, alias := referenceAlias(w)
		for i := range prob {
			if math.Float64bits(prob[i]) != math.Float64bits(a.prob[i]) || alias[i] != a.alias[i] {
				t.Fatalf("%s: column %d = (%v→%d), reference (%v→%d)",
					name, i, a.prob[i], a.alias[i], prob[i], alias[i])
			}
		}
	}
}

// TestAliasReloadMatchesFreshBuild checks in-place rebuilds reusing the
// scratch buffers land on the same table as a fresh construction — across
// both growing and shrinking vector lengths.
func TestAliasReloadMatchesFreshBuild(t *testing.T) {
	a := mustAlias(t, testWeights(100, 1))
	for _, k := range []int{500, 64, 1, 1000} {
		w := testWeights(k, uint64(k))
		if err := a.Reload(w); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		fresh := mustAlias(t, w)
		for i := range fresh.prob {
			if math.Float64bits(fresh.prob[i]) != math.Float64bits(a.prob[i]) || fresh.alias[i] != a.alias[i] {
				t.Fatalf("k=%d: reloaded column %d (%v→%d) != fresh (%v→%d)",
					k, i, a.prob[i], a.alias[i], fresh.prob[i], fresh.alias[i])
			}
		}
	}
}

// drawSequential is the single-goroutine reference: slot streams drawn in
// slot-major order from a fresh sampler over the same seed.
func drawSequential(w []float64, seed uint64, slots, draws int) [][]int {
	ca := NewConcurrentAlias(rng.New(seed), slots)
	if err := ca.Reload(w); err != nil {
		panic(err)
	}
	out := make([][]int, slots)
	for s := 0; s < slots; s++ {
		h := ca.Stream(s)
		out[s] = make([]int, draws)
		for i := range out[s] {
			out[s][i] = h.Draw()
		}
	}
	return out
}

// TestConcurrentAliasDeterministicUnderRace is the -race stress test: 16
// goroutines draw concurrently from one frozen table, and every slot's
// sequence must equal the single-goroutine reference — same seed, same
// per-stream draws, regardless of scheduling.
func TestConcurrentAliasDeterministicUnderRace(t *testing.T) {
	const slots, draws = 16, 2000
	w := testWeights(512, 3)
	want := drawSequential(w, 42, slots, draws)

	ca := NewConcurrentAlias(rng.New(42), slots)
	if err := ca.Reload(w); err != nil {
		t.Fatal(err)
	}
	got := make([][]int, slots)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := ca.Stream(s)
			seq := make([]int, draws)
			for i := range seq {
				seq[i] = h.Draw()
			}
			got[s] = seq
		}(s)
	}
	wg.Wait()
	for s := range want {
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("slot %d draw %d: concurrent %d != sequential %d", s, i, got[s][i], want[s][i])
			}
		}
	}
}

// TestConcurrentAliasReloadPersistsStreams checks the property the MWU
// learners lean on: reloading the table between draw phases must not
// disturb the slot streams, so a reload-per-phase trajectory matches
// drawing through plain Alias tables on manually split streams.
func TestConcurrentAliasReloadPersistsStreams(t *testing.T) {
	const slots, draws = 4, 50
	w1, w2 := testWeights(64, 5), testWeights(64, 6)

	streams := rng.New(9).SplitN(slots)
	a1 := mustAlias(t, w1)
	a2 := mustAlias(t, w2)
	var want [][]int
	for s := 0; s < slots; s++ {
		seq := make([]int, 0, 2*draws)
		for i := 0; i < draws; i++ {
			seq = append(seq, a1.Draw(streams[s]))
		}
		want = append(want, seq)
	}
	for s := 0; s < slots; s++ {
		for i := 0; i < draws; i++ {
			want[s] = append(want[s], a2.Draw(streams[s]))
		}
	}

	ca := NewConcurrentAlias(rng.New(9), slots)
	for phase, w := range [][]float64{w1, w2} {
		if err := ca.Reload(w); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			h := ca.Stream(s)
			for i := 0; i < draws; i++ {
				if got := h.Draw(); got != want[s][phase*draws+i] {
					t.Fatalf("phase %d slot %d draw %d: %d != %d", phase, s, i, got, want[s][phase*draws+i])
				}
			}
		}
	}
}

// TestLockedFenwickMatchesFenwick checks the serialized path draws exactly
// what a plain Fenwick draws on the same per-slot streams, and that its
// contention counter stays zero under single-goroutine use.
func TestLockedFenwickMatchesFenwick(t *testing.T) {
	const slots, draws = 4, 200
	w := testWeights(128, 8)
	plain := mustFenwick(t, w)
	streams := rng.New(21).SplitN(slots)

	lf := NewLockedFenwick(rng.New(21), slots)
	if err := lf.Reload(w); err != nil {
		t.Fatal(err)
	}
	if lf.Len() != 128 {
		t.Fatalf("Len() = %d", lf.Len())
	}
	for s := 0; s < slots; s++ {
		h := lf.Stream(s)
		for i := 0; i < draws; i++ {
			want := plain.Draw(streams[s])
			if got := h.Draw(); got != want {
				t.Fatalf("slot %d draw %d: %d != %d", s, i, got, want)
			}
		}
	}
	if c := lf.Contention(); c != 0 {
		t.Fatalf("single-goroutine contention = %d, want 0", c)
	}
}

// TestLockedFenwickConcurrentDeterministic drives all slots concurrently:
// per-slot sequences must still match the per-slot reference (the mutex
// serializes tree access, the streams keep slots independent).
func TestLockedFenwickConcurrentDeterministic(t *testing.T) {
	const slots, draws = 16, 500
	w := testWeights(256, 10)
	plain := mustFenwick(t, w)
	streams := rng.New(31).SplitN(slots)
	want := make([][]int, slots)
	for s := range want {
		want[s] = make([]int, draws)
		for i := range want[s] {
			want[s][i] = plain.Draw(streams[s])
		}
	}

	lf := NewLockedFenwick(rng.New(31), slots)
	if err := lf.Reload(w); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, slots)
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h := lf.Stream(s)
			for i := 0; i < draws; i++ {
				if got := h.Draw(); got != want[s][i] {
					errs <- "slot draw mismatch"
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	if msg, bad := <-errs; bad {
		t.Fatal(msg)
	}
}

// TestCheckedConstructorErrors covers the constructors' and Reloads'
// error paths.
func TestCheckedConstructorErrors(t *testing.T) {
	bad := map[string]struct {
		w    []float64
		want error
	}{
		"negative":  {[]float64{1, -1}, ErrBadWeight},
		"nan":       {[]float64{math.NaN()}, ErrBadWeight},
		"zero":      {[]float64{0, 0}, ErrBadTotal},
		"infinite":  {[]float64{math.Inf(1)}, ErrBadTotal},
		"empty":     {nil, ErrBadTotal},
		"overflows": {[]float64{math.MaxFloat64, math.MaxFloat64}, ErrBadTotal},
	}
	for name, tc := range bad {
		if _, err := NewAlias(tc.w); err != tc.want {
			t.Errorf("NewAlias(%s) error = %v, want %v", name, err, tc.want)
		}
		if err := (&Alias{}).Reload(tc.w); err != tc.want {
			t.Errorf("Alias.Reload(%s) error = %v, want %v", name, err, tc.want)
		}
	}
	// Fenwick accepts a zero total at build time (Draw panics instead),
	// so only the per-weight validation applies.
	for _, name := range []string{"negative", "nan"} {
		if _, err := NewFenwick(bad[name].w); err != ErrBadWeight {
			t.Errorf("NewFenwick(%s) error = %v, want ErrBadWeight", name, err)
		}
	}
	if f, err := NewFenwick([]float64{0, 0}); err != nil || f == nil {
		t.Errorf("NewFenwick(zero total) = %v, %v; want tree, nil", f, err)
	}
	f := mustFenwick(t, []float64{1, 2})
	if err := f.Reload([]float64{1, -3}); err != ErrBadWeight {
		t.Errorf("Reload(negative) error = %v, want ErrBadWeight", err)
	}
	if f.Weight(1) != 2 {
		t.Errorf("failed Reload mutated the tree: w[1] = %v", f.Weight(1))
	}
}

// TestConcurrentAliasDistribution sanity-checks the frozen-table draw
// frequencies against the weights (zero-weight options never drawn).
func TestConcurrentAliasDistribution(t *testing.T) {
	w := testWeights(64, 17)
	ca := NewConcurrentAlias(rng.New(55), 4)
	if err := ca.Reload(w); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(w))
	for s := 0; s < 4; s++ {
		h := ca.Stream(s)
		for i := 0; i < 50000; i++ {
			counts[h.Draw()]++
		}
	}
	chiSquared(t, counts, w, 4*50000)
	for i, wi := range w {
		if wi == 0 && counts[i] != 0 {
			t.Fatalf("zero-weight option %d drawn %d times", i, counts[i])
		}
	}
}

// TestSamplerInterfaces pins the Forkable/Stream contract to
// ConcurrentAlias: every slot's handle is stable, reports the table's
// option count, and draws in range.
func TestSamplerInterfaces(t *testing.T) {
	var f Forkable = NewConcurrentAlias(rng.New(3), 2)
	if err := f.(*ConcurrentAlias).Reload(testWeights(8, 70)); err != nil {
		t.Fatal(err)
	}
	if f.Len() != 8 {
		t.Fatalf("len = %d", f.Len())
	}
	for slot := 0; slot < 2; slot++ {
		s := f.Stream(slot)
		if s != f.Stream(slot) {
			t.Fatalf("slot %d: Stream returned a different handle", slot)
		}
		if s.Len() != 8 {
			t.Fatalf("slot %d: stream len = %d", slot, s.Len())
		}
		if v := s.Draw(); v < 0 || v >= 8 {
			t.Fatalf("slot %d: draw out of range: %d", slot, v)
		}
	}
}
