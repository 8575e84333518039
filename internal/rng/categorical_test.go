package rng

import (
	"math"
	"testing"
)

// TestCategoricalTotalPanics: a weight vector whose total is zero,
// negative, NaN or infinite has no distribution to draw from.
func TestCategoricalTotalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"zero total":     {0, 0},
		"negative total": {-1},
		"nan total":      {1, math.NaN()},
		"inf total":      {1, math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}
