package tmedb

import (
	"math"
	"strings"
	"testing"
)

func TestComplexityTableGrowsWithN(t *testing.T) {
	cfg := smallConfig()
	cfg.Ns = []int{8, 16, 24}
	res := ComplexityTable(cfg)
	if len(res.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(res.Series))
	}
	for _, s := range res.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Errorf("%s not monotone in N: %v", s.Label, s.Y)
			}
		}
	}
	// pruning must help: pruned <= full at every N
	pruned, full := res.Series[0], res.Series[1]
	for i := range pruned.Y {
		if pruned.Y[i] > full.Y[i] {
			t.Errorf("pruned DTS %g exceeds full %g at N=%g", pruned.Y[i], full.Y[i], pruned.X[i])
		}
	}
	if !strings.Contains(res.String(), "aux-vertices") {
		t.Error("table missing aux-vertices column")
	}
}

func TestGapTableCertifiesSmallGaps(t *testing.T) {
	cfg := smallConfig()
	cfg.Ns = []int{10, 15}
	res := GapTable(cfg)
	if len(res.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(res.Series))
	}
	ratio := res.Series[2]
	for i, r := range ratio.Y {
		if math.IsNaN(r) {
			continue
		}
		if r < 1-1e-9 {
			t.Errorf("gap %g < 1 at N=%g — bound above heuristic cost", r, ratio.X[i])
		}
		if r > 20 {
			t.Errorf("gap %g at N=%g implausibly large", r, ratio.X[i])
		}
	}
}

// TestGapTableRecordsPhases: the gap table plans through the planner
// table, so its EEDCB solves record their phase tree into cfg.Obs as
// every other panel's do.
func TestGapTableRecordsPhases(t *testing.T) {
	cfg := smallConfig()
	cfg.Ns = []int{10}
	cfg.Obs = NewRecorder()
	GapTable(cfg)
	rep := cfg.Obs.Snapshot(nil)
	if len(rep.Phases) == 0 || rep.Phases[0].Name != "eedcb" {
		t.Fatalf("gap table recorded phases %v, want eedcb solves", rep.Phases)
	}
}

func TestRunParallelCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		hits := make([]int, 100)
		runParallel(workers, len(hits), func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, h)
			}
		}
	}
	// n smaller than worker count
	small := make([]int, 2)
	runParallel(8, 2, func(i int) { small[i]++ })
	if small[0] != 1 || small[1] != 1 {
		t.Errorf("small run = %v", small)
	}
	// n == 0 must not hang
	runParallel(8, 0, func(int) { t.Error("should not run") })
}
