package core

import (
	"testing"

	"repro/internal/haggle"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// ablationGraph is the figures' default 20-node graph (trace seed 1)
// under the given channel model.
func ablationGraph(model tveg.Model) *tveg.Graph {
	tr := haggle.Generate(haggle.GenOptions{N: 30}, rng.New(1))
	return tr.Restrict(20).ToTVEG(0, tveg.DefaultParams(), model)
}

// frEEDCB plans FR-EEDCB (level 2, serial) as FREEDCB does, allocating
// energy with the Lagrangian dual decomposition when dual is set and
// with the planners' greedy pass otherwise.
func frEEDCB(g *tveg.Graph, src tvg.NodeID, t0, deadline float64, dual bool) (schedule.Schedule, error) {
	backbone, incErr := solveViaAux(plannerView(g, true), src, nil, t0, deadline, 2, 0, nil, true, nil)
	if bad := onlyIncomplete(incErr); bad != nil {
		return nil, bad
	}
	return allocateEnergy(g, backbone, src, nil, incErr, dual, 0, nil, nil)
}

// BenchmarkAblationBroadcastAdvantage compares the auxiliary graph's
// power-vertex expansion (Property 6.1) against independent unicast
// edges, on the figures' default 20-node static graph (trace seed 1,
// window 9000–11000 s), reporting the energy each EEDCB plan spends.
func BenchmarkAblationBroadcastAdvantage(b *testing.B) {
	g := ablationGraph(tveg.Static)
	for _, advantage := range []bool{true, false} {
		name := "advantage"
		if !advantage {
			name = "unicast"
		}
		b.Run(name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				s, err := solveViaAux(g, 0, nil, 9000, 11000, EEDCB{}.level(), 0, nil, advantage, nil)
				if err != nil {
					b.Fatal(err)
				}
				energy = s.NormalizedCost(g.Params.GammaTh)
			}
			b.ReportMetric(energy*1e18, "attoJ/γth")
		})
	}
}

// BenchmarkAblationNLPSolver compares the two energy allocators
// (greedy constraint-fixing with coordinate descent, Lagrangian dual)
// on FR-EEDCB plans of the figures' default 20-node Rayleigh graph
// (window 9000–11000 s), reporting the energy each spends.
func BenchmarkAblationNLPSolver(b *testing.B) {
	g := ablationGraph(tveg.RayleighFading)
	for _, dual := range []bool{false, true} {
		name := "greedy"
		if dual {
			name = "dual"
		}
		b.Run(name, func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				s, err := frEEDCB(g, 0, 9000, 11000, dual)
				if err != nil {
					b.Fatal(err)
				}
				energy = s.NormalizedCost(g.Params.GammaTh)
			}
			b.ReportMetric(energy*1e18, "attoJ/γth")
		})
	}
}
