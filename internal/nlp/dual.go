package nlp

import (
	"fmt"
	"math"

	"repro/internal/channel"
)

// The subgradient ascent runs dualIters iterations; iteration k steps
// by dualStep0/√(k+1).
const (
	dualIters = 60
	dualStep0 = 1.0
)

// SolveDual solves the energy allocation by Lagrangian dual
// decomposition. The Lagrangian of Eq. 14–17,
//
//	L(w, λ) = Σ_k w_k + Σ_j λ_j (Σ_{k∈K_j} log φ_k(w_k) − log ε)
//
// separates per variable: each w_k minimizes
// w_k + Σ_{j∋k} λ_j·log φ_kj(w_k) independently (a 1-D search), and the
// multipliers rise by projected subgradient on the constraint residuals.
// The problem is not convex, so the dual iterates are used as *proposals*:
// each is repaired to feasibility by the greedy single-variable raise and
// polished by coordinate descent, and the cheapest feasible repair wins.
// The result is always feasible; on instances where the duality gap is
// small it matches SolveGreedy, and occasionally beats it by splitting
// load across transmissions serving several constraints at once.
//
// SolveDual returns a feasible allocation or ErrInfeasible.
func SolveDual(p *Problem) ([]float64, error) {
	// Feasibility reference (and fallback): the greedy solution.
	best, err := SolveGreedy(p)
	if err != nil {
		return nil, err
	}
	bestCost := p.Cost(best)

	byVar := make([][]varTerm, p.NumVars)
	for ci, c := range p.Constraints {
		for _, t := range c.Terms {
			byVar[t.Var] = append(byVar[t.Var], varTerm{ci, t.ED})
		}
	}
	// search cap per variable: beyond the strictest single-constraint
	// requirement the variable never needs to grow
	cap_ := make([]float64, p.NumVars)
	for v := range cap_ {
		need := p.WMin
		for _, vt := range byVar[v] {
			eps := math.Exp(p.Constraints[vt.cons].Bound)
			if w := vt.ed.MinCost(eps); w > need {
				need = w
			}
		}
		if need > p.WMax {
			need = p.WMax
		}
		cap_[v] = need
	}

	lambda := make([]float64, len(p.Constraints))
	w := make([]float64, p.NumVars)
	for iter := 0; iter < dualIters; iter++ {
		if err := p.Cancel.Check(); err != nil {
			return nil, fmt.Errorf("nlp: dual ascent: %w", err)
		}
		// per-variable 1-D minimization of w + Σ λ_j log φ(w)
		for v := 0; v < p.NumVars; v++ {
			w[v] = minimizeVar(p, byVar[v], lambda, cap_[v])
		}
		// repair to feasibility, polish, track the best
		cand := append([]float64(nil), w...)
		if repair(p, cand) {
			if err := CoordinateDescent(p, cand, 10); err != nil {
				return nil, err
			}
			if c := p.Cost(cand); c < bestCost {
				bestCost = c
				copy(best, cand)
			}
		}
		// subgradient ascent on the residuals
		step := dualStep0 / math.Sqrt(float64(iter+1))
		for ci, c := range p.Constraints {
			g := c.Residual(w)
			if math.IsInf(g, -1) {
				g = -1 // saturated constraint: gently decrease λ
			}
			lambda[ci] += step * g
			if lambda[ci] < 0 {
				lambda[ci] = 0
			}
		}
	}
	if !p.Feasible(best) {
		return nil, ErrInfeasible
	}
	return best, nil
}

// varTerm is one appearance of a variable in a constraint.
type varTerm struct {
	cons int
	ed   channel.EDFunction
}

// minimizeVar minimizes f(x) = x + Σ λ_j·log φ_j(x) over [WMin, cap] by
// golden-section search on a log-ish bracket. f is continuous; the
// search samples densely enough that local dips are found in practice,
// and exactness is unnecessary (iterates are proposals).
func minimizeVar(p *Problem, terms []varTerm, lambda []float64, cap_ float64) float64 {
	if len(terms) == 0 || cap_ <= p.WMin {
		return p.WMin
	}
	f := func(x float64) float64 {
		v := x
		for _, t := range terms {
			if lambda[t.cons] == 0 {
				continue
			}
			lp := logPhi(t.ed, x)
			if math.IsInf(lp, -1) {
				return math.Inf(-1) // a free ride: deterministic success
			}
			v += lambda[t.cons] * lp
		}
		return v
	}
	// coarse scan then golden refinement around the best sample
	const samples = 24
	bestX, bestF := p.WMin, f(p.WMin)
	lo := p.WMin
	if lo == 0 {
		lo = cap_ / 1e6
	}
	ratio := math.Pow(cap_/lo, 1.0/(samples-1))
	x := lo
	for i := 0; i < samples; i++ {
		if fx := f(x); fx < bestF {
			bestF = fx
			bestX = x
		}
		x *= ratio
	}
	a := bestX / ratio
	b := bestX * ratio
	if a < p.WMin {
		a = p.WMin
	}
	if b > cap_ {
		b = cap_
	}
	const phi = 0.6180339887498949
	for i := 0; i < 40 && b-a > 1e-12*(1+b); i++ {
		x1 := b - phi*(b-a)
		x2 := a + phi*(b-a)
		if f(x1) <= f(x2) {
			b = x2
		} else {
			a = x1
		}
	}
	mid := (a + b) / 2
	if f(mid) < bestF {
		return mid
	}
	return bestX
}

// repair raises single variables until every constraint holds (the
// greedy fixing pass applied to an arbitrary starting point). Returns
// false if the box cannot absorb the repair.
func repair(p *Problem, w []float64) bool {
	for guard := 0; guard <= len(p.Constraints); guard++ {
		worstIdx, worstRes := -1, feasTol
		for ci, c := range p.Constraints {
			if r := c.Residual(w); r > worstRes {
				worstRes = r
				worstIdx = ci
			}
		}
		if worstIdx == -1 {
			return true
		}
		c := p.Constraints[worstIdx]
		bestVar, bestNew, bestDelta := -1, 0.0, math.Inf(1)
		for _, t := range c.Terms {
			target := logPhi(t.ED, w[t.Var]) - c.Residual(w)
			nw := p.raiseTo(t.ED, w[t.Var], target)
			if delta := nw - w[t.Var]; delta < bestDelta {
				bestDelta = delta
				bestVar = t.Var
				bestNew = nw
			}
		}
		if bestVar == -1 || math.IsInf(bestNew, 1) {
			return false
		}
		w[bestVar] = bestNew
	}
	return p.Feasible(w)
}
