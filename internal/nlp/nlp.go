// Package nlp solves the optimal energy allocation problem of §VI-B
// (Eq. 14–17): after broadcast backbone selection fixes the relays R and
// transmission times T, choose the cost vector W minimizing Σ w_k subject
// to, for every node, the product of per-transmission failure
// probabilities staying below the acceptable error rate ε, within the box
// [w_min, w_max].
//
// In log space each constraint becomes Σ_k log φ_k(w_k) <= log ε — a sum
// of monotone non-increasing univariate functions, which the package
// exploits twice: a greedy constraint-fixing pass (raise the single
// cheapest variable until each constraint holds; raising a variable never
// breaks another constraint), then coordinate descent (shrink every
// variable to its minimal feasible value given the others). A Lagrangian
// dual decomposition (SolveDual) is the alternative allocator.
package nlp

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cancel"
	"repro/internal/channel"
	"repro/internal/obs"
)

// Term is one factor of a product constraint: variable Var transmitting
// through channel ED.
type Term struct {
	Var int
	ED  channel.EDFunction
}

// Constraint requires Σ_k log φ_k(w_k) <= Bound (Bound = log ε).
type Constraint struct {
	Terms []Term
	Bound float64
}

// Problem is an energy allocation instance.
type Problem struct {
	NumVars     int
	WMin, WMax  float64
	Constraints []Constraint
	// Obs counts solver iterations (greedy repairs, descent sweeps).
	// Write-only: allocations are identical with or without it. Nil
	// records nothing.
	Obs *obs.Recorder
	// Cancel is the cancellation checkpoint token, polled once per
	// repair / sweep / dual step. Nil is the zero-overhead
	// uncancellable path; a completed solve is byte-identical for every
	// value.
	Cancel *cancel.Token
}

// NewProblem creates a problem with n variables in [wmin, wmax].
func NewProblem(n int, wmin, wmax float64) *Problem {
	if n < 0 || wmin < 0 || wmax < wmin {
		panic(fmt.Sprintf("nlp: invalid problem n=%d wmin=%g wmax=%g", n, wmin, wmax))
	}
	return &Problem{NumVars: n, WMin: wmin, WMax: wmax}
}

// AddConstraint appends a product constraint with failure bound eps
// (0 < eps < 1): Π φ_k(w_k) <= eps.
func (p *Problem) AddConstraint(eps float64, terms ...Term) {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("nlp: constraint eps %g outside (0,1)", eps))
	}
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.NumVars {
			panic(fmt.Sprintf("nlp: term variable %d out of range", t.Var))
		}
	}
	p.Constraints = append(p.Constraints, Constraint{Terms: terms, Bound: math.Log(eps)})
}

// logPhi returns log φ(w), with -Inf for φ = 0.
func logPhi(ed channel.EDFunction, w float64) float64 {
	phi := ed.FailureProb(w)
	if phi <= 0 {
		return math.Inf(-1)
	}
	return math.Log(phi)
}

// lhs evaluates Σ log φ of a constraint at w.
func (c Constraint) lhs(w []float64) float64 {
	s := 0.0
	for _, t := range c.Terms {
		s += logPhi(t.ED, w[t.Var])
		if math.IsInf(s, -1) {
			return s
		}
	}
	return s
}

// Residual returns lhs - Bound (> 0 means violated).
func (c Constraint) Residual(w []float64) float64 { return c.lhs(w) - c.Bound }

// feasTol absorbs floating-point slack in feasibility checks.
const feasTol = 1e-9

// Feasible reports whether w satisfies every constraint and the box.
func (p *Problem) Feasible(w []float64) bool {
	for _, x := range w {
		if x < p.WMin-feasTol || x > p.WMax+feasTol {
			return false
		}
	}
	for _, c := range p.Constraints {
		if c.Residual(w) > feasTol {
			return false
		}
	}
	return true
}

// Violation returns the maximum constraint residual (0 when feasible).
func (p *Problem) Violation(w []float64) float64 {
	worst := 0.0
	for _, c := range p.Constraints {
		if r := c.Residual(w); r > worst {
			worst = r
		}
	}
	return worst
}

// Cost returns Σ w_k.
func (p *Problem) Cost(w []float64) float64 {
	s := 0.0
	for _, x := range w {
		s += x
	}
	return s
}

// ErrInfeasible is returned when no allocation within the box satisfies
// all constraints.
var ErrInfeasible = errors.New("nlp: problem infeasible within [wmin, wmax]")

// raiseTo returns the smallest w' >= w such that log φ(w') <= target, or
// +Inf when impossible within wmax.
func (p *Problem) raiseTo(ed channel.EDFunction, w, target float64) float64 {
	if logPhi(ed, w) <= target {
		return w
	}
	if target >= 0 {
		return w // log φ <= 0 always
	}
	epsNeeded := math.Exp(target)
	wNeed := ed.MinCost(epsNeeded)
	if wNeed > p.WMax {
		return math.Inf(1)
	}
	if wNeed < w {
		wNeed = w
	}
	return wNeed
}

// SolveGreedy runs the greedy constraint-fixing pass followed by
// coordinate-descent refinement. It returns a feasible allocation or
// ErrInfeasible.
func SolveGreedy(p *Problem) ([]float64, error) {
	w := make([]float64, p.NumVars)
	for i := range w {
		w[i] = p.WMin
	}
	// Greedy fixing: handle the most violated constraint by raising the
	// single variable that repairs it most cheaply. Raising a variable
	// only decreases every log φ, so repaired constraints stay repaired;
	// the loop terminates after at most len(Constraints) repairs.
	for iter := 0; iter <= len(p.Constraints); iter++ {
		if err := p.Cancel.Check(); err != nil {
			return nil, fmt.Errorf("nlp: greedy fixing: %w", err)
		}
		worstIdx, worstRes := -1, feasTol
		for ci, c := range p.Constraints {
			if r := c.Residual(w); r > worstRes {
				worstRes = r
				worstIdx = ci
			}
		}
		if worstIdx == -1 {
			break
		}
		c := p.Constraints[worstIdx]
		if len(c.Terms) == 0 {
			return nil, fmt.Errorf("%w: constraint %d has no terms", ErrInfeasible, worstIdx)
		}
		bestVar, bestNew, bestDelta := -1, 0.0, math.Inf(1)
		for _, t := range c.Terms {
			// fix the whole residual with this variable alone
			target := logPhi(t.ED, w[t.Var]) - c.Residual(w)
			nw := p.raiseTo(t.ED, w[t.Var], target)
			if delta := nw - w[t.Var]; delta < bestDelta {
				bestDelta = delta
				bestVar = t.Var
				bestNew = nw
			}
		}
		if bestVar == -1 || math.IsInf(bestNew, 1) {
			return nil, ErrInfeasible
		}
		w[bestVar] = bestNew
		p.Obs.Counter("nlp.greedy.repairs").Inc()
	}
	if !p.Feasible(w) {
		return nil, ErrInfeasible
	}
	if err := CoordinateDescent(p, w, 50); err != nil {
		return nil, err
	}
	return w, nil
}

// CoordinateDescent shrinks each variable in turn to the minimum value
// keeping every constraint satisfied given the other variables, repeating
// up to maxSweeps or until a sweep changes nothing. w must be feasible on
// entry and stays feasible throughout. The only error is a tripped
// cancellation checkpoint; on error w is feasible but unpolished and must
// be discarded for determinism.
func CoordinateDescent(p *Problem, w []float64, maxSweeps int) error {
	// Index constraints by variable.
	byVar := make([][]int, p.NumVars)
	for ci, c := range p.Constraints {
		for _, t := range c.Terms {
			byVar[t.Var] = append(byVar[t.Var], ci)
		}
	}
	sweeps := p.Obs.Counter("nlp.descent.sweeps")
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if err := p.Cancel.Check(); err != nil {
			return fmt.Errorf("nlp: coordinate descent: %w", err)
		}
		sweeps.Inc()
		changed := false
		for v := 0; v < p.NumVars; v++ {
			need := p.WMin
			for _, ci := range byVar[v] {
				c := p.Constraints[ci]
				// slack available to variable v in this constraint
				others := 0.0
				var eds []channel.EDFunction
				for _, t := range c.Terms {
					if t.Var == v {
						eds = append(eds, t.ED)
						continue
					}
					others += logPhi(t.ED, w[t.Var])
				}
				// v may appear multiple times in one constraint (a relay
				// reaching the same node at different times) — rare;
				// handle by requiring each appearance to carry an equal
				// share of the remaining budget.
				if len(eds) == 0 {
					continue
				}
				target := (c.Bound - others) / float64(len(eds))
				for _, ed := range eds {
					nw := p.raiseTo(ed, p.WMin, target)
					if nw > need {
						need = nw
					}
				}
			}
			if need < w[v]-1e-15 {
				w[v] = need
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return nil
}
