package core

import (
	"context"
	"fmt"

	"repro/internal/auxgraph"
	"repro/internal/cancel"
	"repro/internal/dts"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// EEDCB is the energy-efficient delay-constrained broadcast of §VI-A:
// build the discrete time set, map the instance onto the auxiliary graph,
// and run the directed Steiner approximation. On a fading graph the
// planner assumes a static channel (it is the non-fading-aware
// algorithm); FREEDCB is the fading-resistant variant.
type EEDCB struct {
	// Level is the recursive-greedy level ℓ (>= 1). Level 2 is the
	// default trade-off; level 1 degrades to the shortest-path-tree
	// heuristic.
	Level int
	// Workers bounds the solver-internal worker pools (DTS filtering,
	// auxiliary-graph weight construction, Steiner candidate scan).
	// Schedules are byte-identical for every value; <= 1 (the zero
	// value) runs the fully serial paths.
	Workers int
	// Obs receives the phase tree (eedcb → dts/auxgraph/steiner) and the
	// per-stage metrics. Recording is write-only — planned schedules are
	// byte-identical with or without it. Nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (e EEDCB) Name() string { return "EEDCB" }

func (e EEDCB) level() int {
	if e.Level <= 0 {
		return 2
	}
	return e.Level
}

// Schedule implements Scheduler.
func (e EEDCB) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return e.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through every pipeline stage (DTS, auxiliary graph,
// Steiner). A background context takes the exact uncancellable path.
func (e EEDCB) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return e.MulticastCtx(ctx, g, src, nil, t0, deadline)
}

// Multicast plans a minimum-energy delay-constrained multicast: only the
// target nodes must be informed by the deadline. The §VI-A reduction is
// literally the minimum-energy multicast tree problem, so the pipeline is
// identical with a restricted terminal set.
func (e EEDCB) Multicast(g *tveg.Graph, src tvg.NodeID, targets []tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return e.MulticastCtx(context.Background(), g, src, targets, t0, deadline)
}

// MulticastCtx is Multicast with cancellation checkpoints (see
// ScheduleCtx).
func (e EEDCB) MulticastCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, targets []tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := e.Obs.StartPhase("eedcb")
	defer sp.End()
	view := plannerView(g, false)
	return solveViaAux(view, src, targets, t0, deadline, e.level(), e.Workers, cancel.FromContext(ctx), true, sp.Recorder())
}

// solveViaAux runs the §VI-A pipeline on the given planner view for the
// target set (nil = broadcast to every node). It covers as many targets
// as are reachable, reporting the rest through *IncompleteError. workers
// bounds every stage's internal pool and tok is every stage's
// cancellation token (nil = uncancellable); every stage records into
// rec, the calling planner's phase scope. advantage selects the
// auxiliary graph's power-vertex expansion (Property 6.1): every planner
// sets it, and the broadcast-advantage ablation clears it.
func solveViaAux(view *tveg.Graph, src tvg.NodeID, targets []tvg.NodeID, t0, deadline float64, level, workers int, tok *cancel.Token, advantage bool, rec *obs.Recorder) (schedule.Schedule, error) {
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{Workers: workers, Obs: rec, Cancel: tok})
	if err != nil {
		return nil, fmt.Errorf("core: EEDCB: %w", err)
	}
	a, err := auxgraph.Build(view, d, auxgraph.Options{NoBroadcastAdvantage: !advantage, Workers: workers, Obs: rec, Cancel: tok})
	if err != nil {
		return nil, fmt.Errorf("core: EEDCB: %w", err)
	}
	if targets == nil {
		targets = make([]tvg.NodeID, view.N())
		for i := range targets {
			targets[i] = tvg.NodeID(i)
		}
	}
	reach := a.G.Reachable(a.SourceVertex(src))
	var unreachable []tvg.NodeID
	var terms []int
	for _, n := range targets {
		v := a.Vertex(n, d.Last(n))
		if reach[v] {
			terms = append(terms, v)
		} else {
			unreachable = append(unreachable, n)
		}
	}
	if len(terms) == 0 {
		return nil, &IncompleteError{Uncovered: unreachable}
	}
	stSpan := rec.StartPhase("steiner")
	solver := steiner.NewSolver(a.G).
		WithReverse(a.Reverse()).
		SetWorkers(workers).
		SetObs(rec).
		SetCancel(tok)
	defer solver.Release()
	var sol steiner.Solution
	if level <= 1 {
		sol, err = solver.ShortestPathTree(a.SourceVertex(src), terms)
	} else {
		sol, err = solver.RecursiveGreedy(a.SourceVertex(src), terms, level)
	}
	if err != nil {
		stSpan.End()
		return nil, fmt.Errorf("core: EEDCB: %w", err)
	}
	stSpan.SetInt("terminals", len(terms))
	stSpan.SetInt("solution_edges", sol.NumEdges())
	stSpan.SetFloat("solution_cost", sol.Cost())
	stSpan.End()
	s := normalizeET(view, a.ScheduleFromSolution(sol), src, t0, advantage)
	if len(unreachable) > 0 {
		sortNodeIDs(unreachable)
		return s, &IncompleteError{Uncovered: unreachable}
	}
	return s, nil
}
