package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tveg"
)

func TestLowerBoundStar(t *testing.T) {
	g := star(tveg.Static)
	lb, un, err := LowerBound(g, 0, 0, 100)
	if err != nil || len(un) != 0 {
		t.Fatal(err, un)
	}
	// the hardest terminal is the d=15 node: cost N0γ·225
	want := g.Params.NoiseGamma() * 225
	if math.Abs(lb-want)/want > 1e-9 {
		t.Errorf("LB = %g, want %g", lb, want)
	}
	// on the star the bound is tight: EEDCB matches it
	s, err := EEDCB{}.Schedule(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.TotalCost()-lb)/lb > 1e-9 {
		t.Errorf("EEDCB %g should meet the tight bound %g", s.TotalCost(), lb)
	}
}

func TestLowerBoundUnreachable(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	lb, un, err := LowerBound(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(un) != 1 || un[0] != 2 {
		t.Errorf("unreachable = %v, want [2]", un)
	}
	if lb <= 0 {
		t.Errorf("LB = %g, want positive (node 1 reachable)", lb)
	}
}

func TestLowerBoundBelowAllAlgorithms(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomTrace(r, 8, tveg.Static, 1000)
		lb, _, err := LowerBound(g, 0, 0, 1000)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, alg := range []Scheduler{EEDCB{}, Greedy{}, Random{Seed: seed}} {
			s, err := alg.Schedule(g, 0, 0, 1000)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.Name(), err)
			}
			if s.TotalCost() < lb*(1-1e-9) {
				t.Errorf("seed %d: %s cost %g below certified LB %g",
					seed, alg.Name(), s.TotalCost(), lb)
			}
		}
	}
}

func TestLowerBoundConsistentWithExactOnSmall(t *testing.T) {
	// cross-validate: LB <= OPT on instances the exact solver can handle;
	// done indirectly via EEDCB >= LB (above) plus exact tests elsewhere —
	// here check LB monotonicity: a looser deadline cannot raise the LB.
	r := rand.New(rand.NewSource(3))
	g := randomTrace(r, 8, tveg.Static, 1000)
	tight, _, err1 := LowerBound(g, 0, 0, 600)
	loose, _, err2 := LowerBound(g, 0, 0, 1000)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if loose > tight*(1+1e-9) {
		t.Errorf("loosening the deadline raised the LB: %g → %g", tight, loose)
	}
}
