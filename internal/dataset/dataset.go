// Package dataset assembles the twenty evaluation datasets of the paper's
// Sec. IV-A: five random and five unimodal synthetic instances (sizes 64,
// 256, 1024, 4096, 16384), five C-derived and five Java-derived empirical
// instances.
//
// A dataset is an option-value distribution replayed through the MWU
// algorithms with Bernoulli feedback. The synthetic families are generated
// exactly as the paper describes. The empirical families are derived from
// our simulated repair scenarios: for scenario with option count K, option
// x's value is the normalized screening throughput x·S(x), where S(x) is
// the Monte-Carlo-measured probability that x random pool mutations
// compose safely (the paper's stated proxy — the density of safe
// mutations, which the online search can sample — scaled by the breadth x
// of each probe, which is what makes the objective unimodal as in
// Fig. 4b). S is measured on a grid and interpolated linearly; beyond the
// pool size it is zero.
//
// Empirical datasets require generating the scenario program and
// precomputing its mutation pool, which costs seconds for the largest
// subjects; results are memoized per process, and Get is safe for
// concurrent use.
package dataset

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// Kind classifies datasets into the paper's four groups.
type Kind string

const (
	KindRandom   Kind = "random"
	KindUnimodal Kind = "unimodal"
	KindC        Kind = "c"
	KindJava     Kind = "java"
)

// Dataset is one named evaluation instance.
type Dataset struct {
	// Name as it appears in the paper's tables.
	Name string
	// Kind groups the dataset.
	Kind Kind
	// Size is the option count k.
	Size int
	// Dist is the option-value distribution.
	Dist *dist.Distribution
}

// SyntheticSizes are the synthetic-family instance sizes.
var SyntheticSizes = []int{64, 256, 1024, 4096, 16384}

// spec describes how to build one dataset lazily.
type spec struct {
	name  string
	kind  Kind
	size  int
	build func() *dist.Distribution
}

var (
	specsOnce  sync.Once
	specs      []*spec
	specByName map[string]*spec

	memo sync.Map // name -> *Dataset
)

func initSpecs() {
	specByName = make(map[string]*spec)
	add := func(s *spec) {
		specs = append(specs, s)
		specByName[s.name] = s
	}
	// Synthetic random: values i.i.d. uniform on [0,1).
	for i, size := range SyntheticSizes {
		name := fmt.Sprintf("random%d", size)
		seed := uint64(0xA11CE + i)
		sz := size
		add(&spec{name: name, kind: KindRandom, size: sz, build: func() *dist.Distribution {
			return dist.Random(name, sz, rng.New(seed))
		}})
	}
	// Synthetic unimodal: a·x·e^(−bx)+c with a, b, c uniform per instance.
	for i, size := range SyntheticSizes {
		name := fmt.Sprintf("unimodal%d", size)
		seed := uint64(0xB0B0 + i)
		sz := size
		add(&spec{name: name, kind: KindUnimodal, size: sz, build: func() *dist.Distribution {
			return dist.Unimodal(name, sz, dist.RandomUnimodalParams(rng.New(seed)))
		}})
	}
	// Empirical: derived from the paper rows of the scenario registry.
	// The post-paper family rows (multi-hunk, drifting, adversarial) are
	// repair workloads for E12, not Table II–IV value distributions —
	// admitting them here would silently grow the paper's 20-dataset
	// catalog.
	for _, prof := range scenario.Registry {
		if prof.FamilyName() != scenario.FamilyPaper {
			continue
		}
		kind := KindC
		for _, jn := range scenario.JavaNames {
			if prof.Name == jn {
				kind = KindJava
			}
		}
		p := prof
		add(&spec{name: p.Name, kind: kind, size: p.Options, build: func() *dist.Distribution {
			return buildEmpirical(p)
		}})
	}
}

// Names returns all dataset names in table order.
func Names() []string {
	specsOnce.Do(initSpecs)
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// Get builds (or returns the memoized) dataset by name.
func Get(name string) (*Dataset, error) {
	specsOnce.Do(initSpecs)
	if d, ok := memo.Load(name); ok {
		return d.(*Dataset), nil
	}
	s, ok := specByName[name]
	if !ok {
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
	d := &Dataset{Name: s.name, Kind: s.kind, Size: s.size, Dist: s.build()}
	actual, _ := memo.LoadOrStore(name, d)
	return actual.(*Dataset), nil
}

// MustGet is Get for known names; it panics on error.
func MustGet(name string) *Dataset {
	d, err := Get(name)
	if err != nil {
		panic(err)
	}
	return d
}

// empiricalTrials is the Monte-Carlo trials per grid point for S(x).
const empiricalTrials = 60

// buildEmpirical measures the scenario's safe-density curve and converts
// it into the option-value distribution v(x) = x·S(x), normalized to max
// 1.
func buildEmpirical(prof scenario.Profile) *dist.Distribution {
	sc := scenario.Generate(prof)
	seed := rng.New(prof.Seed ^ 0xD15EA5E)
	pl := sc.BuildPool(8, seed.Split())

	k := prof.Options
	xs := measureGrid(k, pl.Size())
	S := scenario.MeasureSafeDensity(pl, sc.Suite, xs, empiricalTrials, seed.Split())

	values := make([]float64, k)
	for x := 1; x <= k; x++ {
		s := interpolate(xs, S, x, pl.Size())
		values[x-1] = float64(x) * s
	}
	maxV := values[stats.ArgMax(values)]
	if maxV > 0 {
		for i := range values {
			values[i] /= maxV
		}
	}
	return dist.New(prof.Name, values)
}

// measureGrid returns the x values at which S is measured: every integer
// up to 64, then geometrically spaced to min(k, poolSize).
func measureGrid(k, poolSize int) []int {
	limit := k
	if poolSize < limit {
		limit = poolSize
	}
	var xs []int
	for x := 1; x <= limit && x <= 64; x++ {
		xs = append(xs, x)
	}
	if limit > 64 {
		x := 64.0
		for {
			x *= 1.2
			xi := int(math.Round(x))
			if xi >= limit {
				xs = append(xs, limit)
				break
			}
			xs = append(xs, xi)
		}
	}
	return xs
}

// interpolate linearly interpolates the measured S values at integer x;
// beyond the pool size the safe density is zero by definition (a sample of
// more mutations than the pool holds cannot be drawn).
func interpolate(xs []int, S []float64, x, poolSize int) float64 {
	if x > poolSize {
		return 0
	}
	if x <= xs[0] {
		return S[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			x0, x1 := float64(xs[i-1]), float64(xs[i])
			s0, s1 := S[i-1], S[i]
			if math.IsNaN(s0) || math.IsNaN(s1) {
				return 0
			}
			frac := (float64(x) - x0) / (x1 - x0)
			return s0 + frac*(s1-s0)
		}
	}
	last := S[len(S)-1]
	if math.IsNaN(last) {
		return 0
	}
	return last
}
