package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunAPRSmallest(t *testing.T) {
	// Run the full comparison on the two smallest scenarios only; the full
	// registry run is exercised by cmd/experiments and the benchmarks.
	spec := APRSpec{
		Scenarios: []string{"lighttpd-1806-1807", "libtiff-2005-12-14"},
		MaxIter:   2000,
		MaxEvals:  20000,
		Workers:   4,
	}
	sum, err := RunAPR(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Rows) != 2 {
		t.Fatalf("rows = %d", len(sum.Rows))
	}
	if sum.RepairedMW != 2 {
		t.Fatalf("MWRepair repaired %d/2 scenarios", sum.RepairedMW)
	}
	for _, r := range sum.Rows {
		if r.Language != "C" {
			t.Fatalf("%s language = %s", r.Scenario, r.Language)
		}
		if r.MWFitnessEvals <= 0 {
			t.Fatalf("%s: no fitness evals recorded", r.Scenario)
		}
	}
	out := RenderAPR(sum)
	for _, want := range []string{"MWRepair", "GenProg", "RSRepair", "AE", "lighttpd-1806-1807", "Repaired:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAPRJSONByteIdenticalAcrossWorkers: the -apr -json export is a
// function of the spec alone, so it must not change with the worker
// count that evaluates the probes.
func TestAPRJSONByteIdenticalAcrossWorkers(t *testing.T) {
	export := func(workers int) []byte {
		sum, err := RunAPR(APRSpec{
			Scenarios: []string{"lighttpd-1806-1807", "libtiff-2005-12-14"},
			MaxIter:   2000,
			MaxEvals:  20000,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteAPRJSON(&buf, sum); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := export(1)
	for _, workers := range []int{2, 4, 8} {
		if got := export(workers); !bytes.Equal(got, serial) {
			t.Errorf("export at workers=%d differs from workers=1:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

func TestRunAPRUnknownScenario(t *testing.T) {
	if _, err := RunAPR(APRSpec{Scenarios: []string{"nope"}}); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestRunFiguresSmall(t *testing.T) {
	spec := FigureSpec{
		Scenario: "lighttpd-1806-1807",
		Xs:       []int{1, 2, 4, 8, 16, 32},
		Trials:   60,
		Workers:  4,
	}
	d := RunFigures(spec)
	if d.PoolSize <= 0 {
		t.Fatal("no pool built")
	}
	// Fig 4a invariants: safe density starts near 1 and decays; unvetted
	// density starts near the single-mutation safe rate (≈0.3–0.5) and
	// decays much faster.
	if d.SafeDensity[0] < 0.9 {
		t.Fatalf("S(1) = %v", d.SafeDensity[0])
	}
	if d.UnvettedDensity[0] > 0.8 {
		t.Fatalf("unvetted(1) = %v — should be far below 1", d.UnvettedDensity[0])
	}
	lastSafe := d.SafeDensity[len(d.SafeDensity)-1]
	lastUnv := d.UnvettedDensity[len(d.UnvettedDensity)-1]
	if lastUnv > lastSafe {
		t.Fatalf("unvetted density %v above safe %v at max x", lastUnv, lastSafe)
	}
	// Paper's headline contrast: unvetted mutations cross 50% within a few
	// mutations; safe mutations much later (or not within the range).
	hu := HalfLife(d.Xs, d.UnvettedDensity)
	hs := HalfLife(d.Xs, d.SafeDensity)
	if hu == 0 || (hs != 0 && hu >= hs) {
		t.Fatalf("half-lives: unvetted %d, safe %d", hu, hs)
	}
	out4a := RenderFigure4a(d)
	out4b := RenderFigure4b(d)
	if !strings.Contains(out4a, "Figure 4a") || !strings.Contains(out4b, "Figure 4b") {
		t.Fatal("figure renders missing titles")
	}
}

func TestRunSweepEta(t *testing.T) {
	points, err := RunSweep(SweepSpec{
		Param:   SweepEta,
		Values:  []float64{0.05, 0.2},
		Dataset: "random64",
		Seeds:   2,
		MaxIter: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.Runs != 2 || pt.Accuracy.Mean() <= 0 {
			t.Fatalf("point = %+v", pt)
		}
	}
	out := RenderSweep(SweepSpec{Param: SweepEta, Dataset: "random64"}, points)
	if !strings.Contains(out, "eta") || !strings.Contains(out, "update cycles") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRunSweepBetaIntractable(t *testing.T) {
	// β close to 1/2 makes δ tiny and the derived population explodes.
	points, err := RunSweep(SweepSpec{
		Param:   SweepBeta,
		Values:  []float64{0.51},
		Dataset: "random64",
		Seeds:   1,
		MaxIter: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !points[0].Intractable {
		t.Fatalf("β=0.51 should be intractable: %+v", points[0])
	}
}

func TestRunSweepUnknownParam(t *testing.T) {
	if _, err := RunSweep(SweepSpec{Param: "nope", Values: []float64{1}, Dataset: "random64", Seeds: 1}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
}

func TestRunCorpusSmall(t *testing.T) {
	res, err := RunCorpus(CorpusSpec{N: 4, MaxIter: 1500, Workers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repaired < 3 {
		t.Fatalf("repaired %d/4 corpus scenarios", res.Repaired)
	}
	total := 0
	for _, kr := range res.ByKind {
		total += kr[1]
	}
	if total != 4 {
		t.Fatalf("by-kind totals = %d", total)
	}
	out := RenderCorpus(res)
	if !strings.Contains(out, "Corpus study") || !strings.Contains(out, "repaired:") {
		t.Fatalf("render:\n%s", out)
	}
}
