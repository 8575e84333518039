package experiments

import (
	"strings"
	"testing"
)

// TestRenderFigure4bClaimsOnlyComputedFacts renders a two-peaked repair
// density: the rendering may report the measured optimum, but it must not
// assert a shape (such as unimodality) that nothing computed.
func TestRenderFigure4bClaimsOnlyComputedFacts(t *testing.T) {
	d := &FigureData{
		Scenario:      "two-peaks",
		Xs:            []int{1, 2, 3, 4, 5, 6, 7},
		RepairDensity: []float64{0.01, 0.20, 0.02, 0.01, 0.03, 0.18, 0.02},
		OptimumX:      2,
	}
	out := RenderFigure4b(d)
	if strings.Contains(out, "unimodal") {
		t.Errorf("two-peaked density rendered as unimodal:\n%s", out)
	}
	for _, want := range []string{"optimum at x=2", "density 0.2000", "11..271"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering lacks %q:\n%s", want, out)
		}
	}
}
