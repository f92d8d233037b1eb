package tmedb

import (
	"fmt"
	"math"

	"repro/internal/auxgraph"
	"repro/internal/dts"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file holds the validation experiments beyond the paper's §VII
// panels: the §V complexity claims (DTS and auxiliary-graph sizes as the
// network grows) and per-instance approximation-gap certificates from
// the auxiliary-graph lower bound.

// runParallel executes f(0..n-1) across a worker pool of the given size
// (<= 0 selects GOMAXPROCS) and waits. Each index writes only its own
// result slot, so output order is deterministic regardless of
// scheduling.
func runParallel(workers, n int, f func(i int)) {
	_ = parallel.ForEach(nil, nil, parallel.Resolve(workers), n, f) // nil token: never fails
}

// ComplexityTable validates the §V size claims empirically: for each
// network size it reports the pruned DTS point count, the unpruned
// count (the paper's O(N²L) closure for τ ≈ 0), and the auxiliary
// graph's vertex and edge counts for the default delay window.
func ComplexityTable(cfg ExperimentConfig) FigureResult {
	out := FigureResult{
		Title:  fmt.Sprintf("Complexity: DTS and auxiliary-graph size vs N (§V, delay=%gs)", cfg.Delays[0]),
		XLabel: "N",
	}
	pruned := &Series{Label: "DTS-pruned"}
	full := &Series{Label: "DTS-full"}
	verts := &Series{Label: "aux-vertices"}
	edges := &Series{Label: "aux-edges"}
	deadline := cfg.T0 + cfg.Delays[0]
	type row struct{ p, f, v, e float64 }
	rows := make([]row, len(cfg.Ns))
	runParallel(cfg.workers(), len(cfg.Ns), func(i int) {
		g := cfg.graphFor(cfg.Ns[i], Static)
		// Uncancellable builds (no token in the options) never error.
		dp, _ := dts.Build(g.Graph, cfg.T0, deadline, dts.Options{})
		df, _ := dts.Build(g.Graph, cfg.T0, deadline, dts.Options{NoPrune: true})
		a, _ := auxgraph.Build(g, dp, auxgraph.Options{})
		st := a.Stats()
		rows[i] = row{float64(dp.TotalPoints()), float64(df.TotalPoints()),
			float64(st.Vertices), float64(st.Edges)}
	})
	for i, n := range cfg.Ns {
		pruned.Add(float64(n), rows[i].p)
		full.Add(float64(n), rows[i].f)
		verts.Add(float64(n), rows[i].v)
		edges.Add(float64(n), rows[i].e)
	}
	out.Series = []*Series{pruned, full, verts, edges}
	return out
}

// GapTable certifies per-instance approximation quality: for each
// network size it reports the mean EEDCB cost over the configured
// sources, the mean certified lower bound, and their ratio (an upper
// bound on the realized approximation factor).
func GapTable(cfg ExperimentConfig) FigureResult {
	out := FigureResult{
		Title:  "Approximation gap: EEDCB vs certified lower bound (static)",
		XLabel: "N",
	}
	cost := &Series{Label: "EEDCB"}
	bound := &Series{Label: "lower-bound"}
	ratio := &Series{Label: "gap<="}
	deadline := cfg.T0 + cfg.Delays[0]
	alg := cfg.schedulersFor(false)[0]
	type row struct{ c, b float64 }
	rows := make([]row, len(cfg.Ns))
	runParallel(cfg.workers(), len(cfg.Ns), func(i int) {
		g := cfg.graphFor(cfg.Ns[i], Static)
		var cs, bs []float64
		for _, src := range cfg.Sources {
			if int(src) >= g.N() {
				continue
			}
			s, err := cfg.planSchedule(alg, g, src, cfg.T0, deadline)
			if err != nil {
				continue // a failure or partial coverage: bound and cost not comparable
			}
			lb, un, err := LowerBound(g, src, cfg.T0, deadline)
			if err != nil || len(un) > 0 || lb <= 0 {
				continue
			}
			cs = append(cs, s.TotalCost())
			bs = append(bs, lb)
		}
		rows[i] = row{stats.Mean(cs), stats.Mean(bs)}
	})
	for i, n := range cfg.Ns {
		c, b := rows[i].c, rows[i].b
		cost.Add(float64(n), c/cfg.Params.GammaTh)
		bound.Add(float64(n), b/cfg.Params.GammaTh)
		if b > 0 {
			ratio.Add(float64(n), c/b)
		} else {
			ratio.Add(float64(n), math.NaN())
		}
	}
	out.Series = []*Series{cost, bound, ratio}
	return out
}
