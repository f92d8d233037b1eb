package nlp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/channel"
)

func TestNewProblemPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewProblem(-1, 0, 1) },
		func() { NewProblem(2, -1, 1) },
		func() { NewProblem(2, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAddConstraintPanics(t *testing.T) {
	p := NewProblem(1, 0, 10)
	for _, f := range []func(){
		func() { p.AddConstraint(0, Term{0, channel.Rayleigh{Beta: 1}}) },
		func() { p.AddConstraint(1, Term{0, channel.Rayleigh{Beta: 1}}) },
		func() { p.AddConstraint(0.5, Term{3, channel.Rayleigh{Beta: 1}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestSingleHopMatchesMinCost(t *testing.T) {
	// one var, one constraint: w must equal ED.MinCost(eps)
	ed := channel.Rayleigh{Beta: 3}
	p := NewProblem(1, 0, math.Inf(1))
	p.AddConstraint(0.01, Term{0, ed})
	w, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	want := ed.MinCost(0.01)
	if math.Abs(w[0]-want)/want > 1e-6 {
		t.Errorf("w = %g, want MinCost = %g", w[0], want)
	}
}

func TestTwoTransmittersShareLoad(t *testing.T) {
	// two vars both reaching the same node: Π φ <= ε can be met far more
	// cheaply than either var alone meeting ε.
	ed := channel.Rayleigh{Beta: 5}
	p := NewProblem(2, 0, math.Inf(1))
	p.AddConstraint(0.01, Term{0, ed}, Term{1, ed})
	w, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(w) {
		t.Fatalf("infeasible result %v", w)
	}
	solo := ed.MinCost(0.01)
	if p.Cost(w) > solo {
		t.Errorf("shared cost %g should not exceed solo cost %g", p.Cost(w), solo)
	}
}

func TestSharedVariableAcrossConstraints(t *testing.T) {
	// var 0 serves two receivers; var 1 serves one of them too.
	near := channel.Rayleigh{Beta: 1}
	far := channel.Rayleigh{Beta: 10}
	p := NewProblem(2, 0, math.Inf(1))
	p.AddConstraint(0.01, Term{0, near})
	p.AddConstraint(0.01, Term{0, far}, Term{1, far})
	w, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Feasible(w) {
		t.Fatalf("infeasible result %v", w)
	}
	// var 0 must at least satisfy its solo constraint
	if w[0] < near.MinCost(0.01)*(1-1e-9) {
		t.Errorf("w0 = %g below solo minimum %g", w[0], near.MinCost(0.01))
	}
}

func TestInfeasibleByWMax(t *testing.T) {
	ed := channel.Rayleigh{Beta: 100}
	need := ed.MinCost(0.01)
	p := NewProblem(1, 0, need/2) // box too small
	p.AddConstraint(0.01, Term{0, ed})
	if _, err := SolveGreedy(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestEmptyConstraintInfeasible(t *testing.T) {
	p := NewProblem(1, 0, 10)
	p.AddConstraint(0.5)
	if _, err := SolveGreedy(p); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestNoConstraintsAllMin(t *testing.T) {
	p := NewProblem(3, 2, 10)
	w, err := SolveGreedy(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range w {
		if x != 2 {
			t.Errorf("unconstrained vars should sit at WMin, got %v", w)
		}
	}
}

func TestCoordinateDescentNeverBreaksFeasibility(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(r, 5, 8)
		w, err := SolveGreedy(p)
		if err != nil {
			continue
		}
		if !p.Feasible(w) {
			t.Fatalf("greedy produced infeasible w=%v", w)
		}
	}
}

func TestViolationZeroWhenFeasible(t *testing.T) {
	ed := channel.Rayleigh{Beta: 1}
	p := NewProblem(1, 0, math.Inf(1))
	p.AddConstraint(0.1, Term{0, ed})
	w := []float64{ed.MinCost(0.05)} // over-provisioned
	if v := p.Violation(w); v != 0 {
		t.Errorf("Violation = %g, want 0", v)
	}
	if !p.Feasible(w) {
		t.Error("over-provisioned allocation should be feasible")
	}
}

// randomProblem builds a random broadcast-like allocation instance.
func randomProblem(r *rand.Rand, vars, cons int) *Problem {
	p := NewProblem(vars, 0, math.Inf(1))
	for c := 0; c < cons; c++ {
		nTerms := 1 + r.Intn(3)
		terms := make([]Term, 0, nTerms)
		for k := 0; k < nTerms; k++ {
			terms = append(terms, Term{
				Var: r.Intn(vars),
				ED:  channel.Rayleigh{Beta: 0.5 + r.Float64()*10},
			})
		}
		p.AddConstraint(0.005+r.Float64()*0.05, terms...)
	}
	return p
}

func TestQuickGreedyFeasibleOnRandomInstances(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProblem(r, 2+r.Intn(6), 1+r.Intn(10))
		w, err := SolveGreedy(p)
		if err != nil {
			return false // unbounded box: must always be feasible
		}
		return p.Feasible(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickGreedyBeatsNaivePerHop(t *testing.T) {
	// The naive allocation gives every variable the cost to satisfy its
	// tightest constraint alone; the greedy+descent solution must never
	// cost more (it can exploit sharing).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomProblem(r, 2+r.Intn(4), 1+r.Intn(6))
		w, err := SolveGreedy(p)
		if err != nil {
			return false
		}
		naive := make([]float64, p.NumVars)
		for _, c := range p.Constraints {
			eps := math.Exp(c.Bound)
			for _, tm := range c.Terms {
				if need := tm.ED.MinCost(eps); need > naive[tm.Var] {
					naive[tm.Var] = need
				}
			}
		}
		if !p.Feasible(naive) {
			return true // naive not even feasible; nothing to compare
		}
		return p.Cost(w) <= p.Cost(naive)*(1+1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
