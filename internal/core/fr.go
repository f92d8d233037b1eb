package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cancel"
	"repro/internal/nlp"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// The fading-resistant schedulers of §VI-B and §VII decompose TMEDB-R
// into broadcast backbone selection (reusing the static-channel machinery
// with fading-aware edge weights w0 such that φ(w0) = ε) and optimal
// energy allocation (the NLP of Eq. 14–17).

// Allocator selects the NLP solver for the energy allocation step.
type Allocator int

const (
	// AllocGreedy is the greedy constraint-fixing pass with coordinate
	// descent (the default).
	AllocGreedy Allocator = iota
	// AllocDual is the Lagrangian dual decomposition with subgradient
	// ascent.
	AllocDual
)

func (a Allocator) String() string {
	switch a {
	case AllocGreedy:
		return "greedy"
	case AllocDual:
		return "dual"
	default:
		return "allocator(?)"
	}
}

// FREEDCB is FR-EEDCB: EEDCB backbone on the fading view + NLP.
type FREEDCB struct {
	Level int
	// Workers bounds the solver-internal worker pools (backbone
	// construction and per-node NLP constraint assembly). Schedules are
	// byte-identical for every value; <= 1 (the zero value) is serial.
	Workers int
	// Allocator selects the NLP solver (ablation hook).
	Allocator Allocator
	// Obs receives the phase tree (fr-eedcb → dts/auxgraph/steiner/
	// nlp-alloc) and per-stage metrics. Write-only; nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (FREEDCB) Name() string { return "FR-EEDCB" }

func (f FREEDCB) level() int {
	if f.Level <= 0 {
		return 2
	}
	return f.Level
}

// Schedule implements Scheduler.
func (f FREEDCB) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return f.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through backbone selection and the NLP allocation.
func (f FREEDCB) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return f.MulticastCtx(ctx, g, src, nil, t0, deadline)
}

// Multicast plans a fading-resistant multicast to the target subset:
// backbone selection restricted to the targets, then NLP allocation with
// residual-failure constraints only for targets and backbone relays.
func (f FREEDCB) Multicast(g *tveg.Graph, src tvg.NodeID, targets []tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return f.MulticastCtx(context.Background(), g, src, targets, t0, deadline)
}

// MulticastCtx is Multicast with cancellation checkpoints (see
// ScheduleCtx).
func (f FREEDCB) MulticastCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, targets []tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := f.Obs.StartPhase("fr-eedcb")
	defer sp.End()
	tok := cancel.FromContext(ctx)
	view := plannerView(g, true)
	rec := sp.Recorder()
	backbone, incErr := solveViaAux(view, src, targets, t0, deadline, f.level(), f.Workers, tok, true, rec)
	if bad := onlyIncomplete(incErr); bad != nil {
		return nil, bad
	}
	return allocateEnergy(g, backbone, src, targets, incErr, f.Allocator, f.Workers, tok, rec)
}

// FRGreedy is FR-GREED: the coverage-greedy backbone on the fading view
// + NLP energy allocation.
type FRGreedy struct {
	// Workers bounds the DTS filtering and NLP constraint-assembly
	// worker pools (<= 1 serial; results identical for every value).
	Workers int
	// Allocator selects the NLP solver (ablation hook).
	Allocator Allocator
	// Obs receives the phase tree and metrics; nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (FRGreedy) Name() string { return "FR-GREED" }

// Schedule implements Scheduler.
func (f FRGreedy) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return f.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through backbone selection and the NLP allocation.
func (f FRGreedy) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := f.Obs.StartPhase("fr-greed")
	defer sp.End()
	tok := cancel.FromContext(ctx)
	view := plannerView(g, true)
	rec := sp.Recorder()
	backbone, incErr := greedyBackbone(view, src, t0, deadline, f.Workers, tok, rec)
	if bad := onlyIncomplete(incErr); bad != nil {
		return nil, bad
	}
	return allocateEnergy(g, backbone, src, nil, incErr, f.Allocator, f.Workers, tok, rec)
}

// FRRandom is FR-RAND: the random-relay backbone on the fading view +
// NLP energy allocation.
type FRRandom struct {
	Seed int64
	// Workers bounds the DTS filtering and NLP constraint-assembly
	// worker pools (<= 1 serial; results identical for every value).
	Workers int
	// Allocator selects the NLP solver (ablation hook).
	Allocator Allocator
	// Obs receives the phase tree and metrics; nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (FRRandom) Name() string { return "FR-RAND" }

// Schedule implements Scheduler.
func (f FRRandom) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return f.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through backbone selection and the NLP allocation.
func (f FRRandom) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := f.Obs.StartPhase("fr-rand")
	defer sp.End()
	tok := cancel.FromContext(ctx)
	view := plannerView(g, true)
	rec := sp.Recorder()
	backbone, incErr := randomBackbone(view, src, t0, deadline, f.Seed, f.Workers, tok, rec)
	if bad := onlyIncomplete(incErr); bad != nil {
		return nil, bad
	}
	return allocateEnergy(g, backbone, src, nil, incErr, f.Allocator, f.Workers, tok, rec)
}

// onlyIncomplete passes through nil and *IncompleteError, returning any
// other error unchanged so callers can fail fast.
func onlyIncomplete(err error) error {
	if err == nil {
		return nil
	}
	var ie *IncompleteError
	if errors.As(err, &ie) {
		return nil
	}
	return err
}

// allocateEnergy solves the optimal energy allocation NLP (Eq. 14–17)
// for a fixed backbone [R, T] on the true channel model of g, returning
// the schedule with the allocated cost vector W. Coverage constraints
// (Eq. 15) apply to targets (nil = every node); relay-informed
// constraints (Eq. 16) always apply to every backbone relay. The
// incoming incomplete error (uncovered nodes, if any) is propagated:
// uncovered nodes get no coverage constraint.
//
// Per-node constraint assembly — the ψ-heavy part, one ED query per
// (backbone entry, node) pair — fans out across the worker pool; terms
// are then added to the problem in the original node order, so the NLP
// instance is identical for every worker count.
func allocateEnergy(g *tveg.Graph, backbone schedule.Schedule, src tvg.NodeID, targets []tvg.NodeID, incErr error, alloc Allocator, workers int, tok *cancel.Token, rec *obs.Recorder) (schedule.Schedule, error) {
	if len(backbone) == 0 {
		return backbone, incErr
	}
	sp := rec.StartPhase("nlp-alloc")
	defer sp.End()
	scope := sp.Recorder()
	uncov := make([]bool, g.N())
	if incErr != nil {
		var ie *IncompleteError
		if errors.As(incErr, &ie) {
			for _, u := range ie.Uncovered {
				uncov[u] = true
			}
		} else {
			return nil, incErr
		}
	}
	eps := g.Params.Eps
	p := nlp.NewProblem(len(backbone), g.Params.WMin, g.Params.WMax)

	if targets == nil {
		targets = make([]tvg.NodeID, g.N())
		for i := range targets {
			targets[i] = tvg.NodeID(i)
		}
	}
	// Eq. 15: every covered target must end up informed. The per-target
	// term lists depend only on the backbone and the graph, never on
	// each other, so they build in parallel; skip/degrade decisions
	// happen in the serial ordering pass below.
	asmSpan := scope.StartPhase("assemble")
	asmPool := rec.Pool("nlp.assemble")
	coverTerms := make([][]nlp.Term, len(targets))
	asmErr := parallel.ForEach(asmPool, tok, workers, len(targets), func(ti int) {
		nj := targets[ti]
		if nj == src || uncov[nj] {
			return
		}
		var terms []nlp.Term
		for k, x := range backbone {
			if x.Relay == nj || !g.RhoTau(x.Relay, nj, x.T) {
				continue
			}
			terms = append(terms, nlp.Term{Var: k, ED: g.EDAt(x.Relay, nj, x.T)})
		}
		coverTerms[ti] = terms
	})
	if asmErr != nil {
		asmSpan.End()
		return nil, fmt.Errorf("core: energy allocation: %w", asmErr)
	}
	for ti, nj := range targets {
		if nj == src || uncov[nj] {
			continue
		}
		if len(coverTerms[ti]) == 0 {
			// The backbone never reaches this node: degrade to
			// incomplete coverage rather than failing the whole NLP.
			uncov[nj] = true
			continue
		}
		p.AddConstraint(eps, coverTerms[ti]...)
	}

	// Eq. 16: every relay must be informed before (or exactly when, for
	// τ = 0 non-stop chains) it transmits. Informing transmissions are
	// those whose packet has arrived by the relay's departure
	// (schedule.Informs: t_k + τ <= t_j, same-instant ones in schedule
	// order) — a transmission still in flight cannot have informed the
	// relay, so it must not appear in the constraint.
	tau := g.Tau()
	relayTerms := make([][]nlp.Term, len(backbone))
	asmErr = parallel.ForEach(asmPool, tok, workers, len(backbone), func(j int) {
		xj := backbone[j]
		if xj.Relay == src {
			return
		}
		var terms []nlp.Term
		for k, xk := range backbone {
			if k == j || xk.Relay == xj.Relay {
				continue
			}
			if !schedule.Informs(xk.T, tau, xj.T, k, j) {
				continue
			}
			if !g.RhoTau(xk.Relay, xj.Relay, xk.T) {
				continue
			}
			terms = append(terms, nlp.Term{Var: k, ED: g.EDAt(xk.Relay, xj.Relay, xk.T)})
		}
		relayTerms[j] = terms
	})
	if asmErr != nil {
		asmSpan.End()
		return nil, fmt.Errorf("core: energy allocation: %w", asmErr)
	}
	for j, xj := range backbone {
		if xj.Relay == src {
			continue
		}
		if len(relayTerms[j]) == 0 {
			asmSpan.End()
			return nil, fmt.Errorf("core: backbone relay v%d transmits at %g without any informing transmission", xj.Relay, xj.T)
		}
		p.AddConstraint(eps, relayTerms[j]...)
	}
	asmSpan.SetInt("variables", p.NumVars)
	asmSpan.SetInt("constraints", len(p.Constraints))
	asmSpan.End()

	solveSpan := scope.StartPhase("solve")
	solveSpan.SetStr("allocator", alloc.String())
	p.Obs = rec
	p.Cancel = tok
	var (
		w   []float64
		err error
	)
	switch alloc {
	case AllocDual:
		w, err = nlp.SolveDual(p, nlp.DualOptions{})
	default:
		w, err = nlp.SolveGreedy(p)
	}
	solveSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: energy allocation: %w", err)
	}
	out := make(schedule.Schedule, 0, len(backbone))
	for k, x := range backbone {
		if w[k] == 0 {
			// The allocator decided other transmissions already cover
			// this one's targets (φ(0) = 1 contributes nothing), so the
			// transmission is pure overhead.
			continue
		}
		x.W = w[k]
		out = append(out, x)
	}
	var uncovered []tvg.NodeID
	for u, un := range uncov {
		if un {
			uncovered = append(uncovered, tvg.NodeID(u))
		}
	}
	if len(uncovered) > 0 {
		return out, &IncompleteError{Uncovered: uncovered}
	}
	return out, nil
}
