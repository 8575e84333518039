package wrs

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzReload decodes a weight vector (eight little-endian bytes per
// float64) and builds both samplers from it. Both must reject exactly the
// invalid vectors with the documented error, and every accepted alias
// table must be well formed: each prob in [0, 1], each alias in range, and
// no drawable path onto a zero-weight option. The seed corpus runs under
// plain go test; go test -fuzz FuzzReload ./internal/wrs explores beyond
// it.
func FuzzReload(f *testing.F) {
	for _, w := range [][]float64{
		{1},
		{0},
		{1, 1, 1, 1},
		{0, 3, 0, 0, 2, 0},
		{1, -1},
		{math.NaN(), 1},
		{math.Inf(1), 1},
		{math.MaxFloat64, math.MaxFloat64},
		{5e-324, 0, 5e-324},
		{1e-300, 1e300, 0, 2e299},
		{1, 1 + 1e-15, 1 - 1e-15, 1 + 2e-15, 1 - 3e-16, 1},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		testWeights(40, 90),
	} {
		b := make([]byte, 8*len(w))
		for i, wi := range w {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(wi))
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		w := make([]float64, len(b)/8)
		for i := range w {
			w[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		var wantWeight, wantTotal error
		total := 0.0
		for _, wi := range w {
			if wi < 0 || math.IsNaN(wi) {
				wantWeight = ErrBadWeight
			}
			total += wi
		}
		wantTotal = wantWeight
		if wantTotal == nil && (!(total > 0) || math.IsInf(total, 1)) {
			wantTotal = ErrBadTotal
		}

		// Fenwick accepts a zero total at build time (Draw panics
		// instead), so it rejects only bad weights.
		if _, err := NewFenwick(w); err != wantWeight {
			t.Fatalf("NewFenwick(%v) error = %v, want %v", w, err, wantWeight)
		}
		a, err := NewAlias(w)
		if err != wantTotal {
			t.Fatalf("NewAlias(%v) error = %v, want %v", w, err, wantTotal)
		}
		if err != nil {
			return
		}
		for i, p := range a.prob {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("w=%v: prob[%d] = %v outside [0,1]", w, i, p)
			}
			j := int(a.alias[i])
			if j < 0 || j >= len(w) {
				t.Fatalf("w=%v: alias[%d] = %d out of range", w, i, j)
			}
			if w[i] == 0 && p != 0 {
				t.Fatalf("w=%v: zero-weight column %d keeps prob %v", w, i, p)
			}
			if p < 1 && w[j] == 0 {
				t.Fatalf("w=%v: column %d aliases to zero-weight option %d", w, i, j)
			}
		}
	})
}
