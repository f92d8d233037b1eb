package core

import (
	"fmt"
	"math"

	"repro/internal/auxgraph"
	"repro/internal/dts"
	"repro/internal/steiner"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// LowerBound returns a certified lower bound on the optimal TMEDB cost
// of the instance: the most expensive single terminal, i.e.
// max_j dist(source, terminal_j) on the §VI-A auxiliary graph. Any
// feasible schedule must in particular inform the hardest node, and the
// auxiliary-graph shortest path is the cheapest way to do that in
// isolation, so OPT >= LowerBound. Combined with a heuristic's cost it
// yields a per-instance approximation-gap certificate:
//
//	gap <= heuristicCost / LowerBound
//
// without running the exponential exact solver. The bound uses the same
// planner view conventions as EEDCB (static costs; pass a fading view
// for the FR family). Unreachable nodes are skipped and returned.
func LowerBound(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (bound float64, unreachable []tvg.NodeID, err error) {
	view := plannerView(g, g.Model.Fading())
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{})
	if err != nil {
		return 0, nil, fmt.Errorf("core: lower bound: %w", err)
	}
	a, err := auxgraph.Build(view, d, auxgraph.Options{})
	if err != nil {
		return 0, nil, fmt.Errorf("core: lower bound: %w", err)
	}
	solver := steiner.NewSolver(a.G).WithReverse(a.Reverse())
	defer solver.Release()
	root := a.SourceVertex(src)
	for i := 0; i < view.N(); i++ {
		n := tvg.NodeID(i)
		dist := solver.Dist(root, a.Vertex(n, d.Last(n)))
		if math.IsInf(dist, 1) {
			unreachable = append(unreachable, n)
			continue
		}
		if dist > bound {
			bound = dist
		}
	}
	if bound == 0 && len(unreachable) == view.N()-1 {
		return 0, unreachable, fmt.Errorf("core: no node reachable from v%d in [%g,%g]", src, t0, deadline)
	}
	return bound, unreachable, nil
}
