package tmedb

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// smallConfig is a scaled-down experiment setting that keeps the harness
// tests fast while exercising every code path the full figures use.
func smallConfig() ExperimentConfig {
	cfg := DefaultConfig()
	cfg.Sources = []NodeID{0}
	cfg.Delays = []float64{2000, 4000}
	cfg.Ns = []int{10, 15}
	cfg.Trials = 60
	cfg.Fig7Times = []float64{6000, 10000, 14000}
	return cfg
}

func finite(ys []float64) []float64 {
	var out []float64
	for _, y := range ys {
		if !math.IsNaN(y) {
			out = append(out, y)
		}
	}
	return out
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if len(cfg.Delays) != 9 || cfg.Delays[0] != 2000 || cfg.Delays[8] != 6000 {
		t.Errorf("Delays = %v, want 2000..6000 step 500", cfg.Delays)
	}
	if cfg.Fig7Times[0] != 5000 || cfg.Fig7Times[len(cfg.Fig7Times)-1] != 15000 {
		t.Errorf("Fig7Times = %v", cfg.Fig7Times)
	}
	if cfg.Params.Eps != 0.01 {
		t.Errorf("Eps = %g, want 0.01", cfg.Params.Eps)
	}
}

func TestFig4StaticShape(t *testing.T) {
	cfg := smallConfig()
	res := Fig4(cfg, Static)
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want one per N", len(res.Series))
	}
	for _, s := range res.Series {
		ys := finite(s.Y)
		if len(ys) == 0 {
			t.Fatalf("series %s has no finite points", s.Label)
		}
		for _, y := range ys {
			if y <= 0 {
				t.Errorf("series %s has non-positive energy %g", s.Label, y)
			}
		}
	}
	// energy increases with N at each delay (Fig. 4 claim)
	for i := range res.Series[0].Y {
		small, big := res.Series[0].Y[i], res.Series[1].Y[i]
		if !math.IsNaN(small) && !math.IsNaN(big) && big < small*0.5 {
			t.Errorf("N=15 energy %g suspiciously below N=10 energy %g at delay %g",
				big, small, res.Series[0].X[i])
		}
	}
}

func TestFig4FadingRuns(t *testing.T) {
	cfg := smallConfig()
	res := Fig4(cfg, Rayleigh)
	if !strings.Contains(res.Title, "FR-EEDCB") {
		t.Errorf("fading Fig4 should use FR-EEDCB: %s", res.Title)
	}
	if len(finite(res.Series[0].Y)) == 0 {
		t.Error("no finite fading energies")
	}
}

func TestFig5Ordering(t *testing.T) {
	cfg := smallConfig()
	for _, model := range []Model{Static, Rayleigh} {
		res := Fig5(cfg, model)
		if len(res.Series) != 3 {
			t.Fatalf("series = %d, want 3 algorithms", len(res.Series))
		}
		// aggregate over delays: EEDCB <= RAND family ordering
		sum := func(s *Series) float64 {
			t := 0.0
			for _, y := range finite(s.Y) {
				t += y
			}
			return t
		}
		e, r := sum(res.Series[0]), sum(res.Series[2])
		if e <= 0 || r <= 0 {
			t.Fatalf("model %v: degenerate sums %g %g", model, e, r)
		}
		if e > r {
			t.Errorf("model %v: %s total %g exceeds %s total %g",
				model, res.Series[0].Label, e, res.Series[2].Label, r)
		}
	}
}

func TestFig6Shapes(t *testing.T) {
	cfg := smallConfig()
	energy, delivery := Fig6(cfg)
	if len(energy.Series) != 6 || len(delivery.Series) != 6 {
		t.Fatalf("want 6 algorithm series, got %d/%d", len(energy.Series), len(delivery.Series))
	}
	// core.Names is the Fig. 6 series order.
	for i, name := range core.Names {
		if energy.Series[i].Label != name || delivery.Series[i].Label != name {
			t.Errorf("series %d = %q/%q, want %q", i, energy.Series[i].Label, delivery.Series[i].Label, name)
		}
	}
	// FR variants deliver ≈ 1, non-FR clearly below (Fig. 6(b) claim)
	for i := 0; i < 3; i++ {
		nonFR := stats.Mean(finite(delivery.Series[i].Y))
		fr := stats.Mean(finite(delivery.Series[i+3].Y))
		if fr < 0.9 {
			t.Errorf("%s delivery %g, want ≥ 0.9", delivery.Series[i+3].Label, fr)
		}
		if nonFR > fr {
			t.Errorf("%s delivery %g exceeds FR %g", delivery.Series[i].Label, nonFR, fr)
		}
	}
	// FR energy above non-FR (Fig. 6(a) claim)
	for i := 0; i < 3; i++ {
		nonFR := stats.Mean(finite(energy.Series[i].Y))
		fr := stats.Mean(finite(energy.Series[i+3].Y))
		if fr <= nonFR {
			t.Errorf("FR energy %g not above non-FR %g for %s", fr, nonFR, energy.Series[i].Label)
		}
	}
}

func TestFig7ShapeAndDegree(t *testing.T) {
	cfg := smallConfig()
	res := Fig7(cfg, Static)
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 3 algorithms + degree", len(res.Series))
	}
	deg := res.Series[3]
	if deg.Label != "avg-degree" {
		t.Fatalf("last series = %s, want avg-degree", deg.Label)
	}
	for _, y := range deg.Y {
		if y < 0 || math.IsNaN(y) {
			t.Errorf("bad degree sample %g", y)
		}
	}
	// The degree ramp is a statistical property: compare long windows on
	// the experiment graph directly (per-window samples at N=15 are too
	// noisy for pointwise ordering).
	g := cfg.graphFor(defaultN(cfg), Static)
	early := g.AverageDegreeOver(500, 5000, 300)
	late := g.AverageDegreeOver(10000, 16000, 300)
	if early >= late {
		t.Errorf("degree ramp missing: early %g >= late %g", early, late)
	}
}

func TestFigureResultRenders(t *testing.T) {
	cfg := smallConfig()
	res := Fig5(cfg, Static)
	out := res.String()
	if !strings.Contains(out, "EEDCB") || !strings.Contains(out, "delay(s)") {
		t.Errorf("render = %q", out)
	}
}
