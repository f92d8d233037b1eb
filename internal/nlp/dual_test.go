package nlp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/channel"
)

func TestDualSingleHopMatchesMinCost(t *testing.T) {
	ed := channel.Rayleigh{Beta: 3}
	p := NewProblem(1, 0, math.Inf(1))
	p.AddConstraint(0.01, Term{0, ed})
	w, err := SolveDual(p)
	if err != nil {
		t.Fatal(err)
	}
	want := ed.MinCost(0.01)
	if math.Abs(w[0]-want)/want > 1e-6 {
		t.Errorf("w = %g, want %g", w[0], want)
	}
}

func TestDualFeasibleAndNotWorseThanGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		p := randomProblem(r, 2+r.Intn(5), 1+r.Intn(8))
		wd, errD := SolveDual(p)
		wg, errG := SolveGreedy(p)
		if (errD == nil) != (errG == nil) {
			t.Fatalf("trial %d: solvers disagree: %v vs %v", trial, errD, errG)
		}
		if errD != nil {
			continue
		}
		if !p.Feasible(wd) {
			t.Fatalf("trial %d: dual result infeasible", trial)
		}
		// dual keeps the greedy solution as fallback, so it never loses
		if p.Cost(wd) > p.Cost(wg)*(1+1e-9) {
			t.Errorf("trial %d: dual %g worse than greedy %g", trial, p.Cost(wd), p.Cost(wg))
		}
	}
}

func TestDualInfeasible(t *testing.T) {
	ed := channel.Rayleigh{Beta: 100}
	p := NewProblem(1, 0, ed.MinCost(0.01)/2)
	p.AddConstraint(0.01, Term{0, ed})
	if _, err := SolveDual(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestDualSharedVariableSplitsLoad(t *testing.T) {
	// One variable serving two constraints jointly with a second
	// variable: the dual should find a feasible split at least as cheap
	// as per-constraint greedy.
	near := channel.Rayleigh{Beta: 1}
	far := channel.Rayleigh{Beta: 6}
	p := NewProblem(2, 0, math.Inf(1))
	p.AddConstraint(0.01, Term{0, near}, Term{1, far})
	p.AddConstraint(0.01, Term{0, far}, Term{1, near})
	w, err := SolveDual(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(w) {
		t.Fatal("infeasible")
	}
}

func TestRepairFromArbitraryPoint(t *testing.T) {
	ed := channel.Rayleigh{Beta: 2}
	p := NewProblem(2, 0, math.Inf(1))
	p.AddConstraint(0.02, Term{0, ed}, Term{1, ed})
	w := []float64{0, 0}
	if !repair(p, w) {
		t.Fatal("repair failed on feasible problem")
	}
	if !p.Feasible(w) {
		t.Errorf("repaired point infeasible: %v", w)
	}
	// repair of an infeasible box
	p2 := NewProblem(1, 0, ed.MinCost(0.01)/10)
	p2.AddConstraint(0.01, Term{0, ed})
	w2 := []float64{0}
	if repair(p2, w2) {
		t.Error("repair should fail when the box is too small")
	}
}

func TestQuickDualAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProblem(r, 2+r.Intn(4), 1+r.Intn(6))
		w, err := SolveDual(p)
		return err == nil && p.Feasible(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
