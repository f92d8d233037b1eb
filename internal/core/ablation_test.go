package core

import (
	"testing"

	"repro/internal/haggle"
	"repro/internal/rng"
	"repro/internal/tveg"
)

// BenchmarkAblationBroadcastAdvantage compares the auxiliary graph's
// power-vertex expansion (Property 6.1) against independent unicast
// edges, on the figures' default 20-node static graph (trace seed 1,
// window 9000–11000 s), reporting the energy each EEDCB plan spends.
func BenchmarkAblationBroadcastAdvantage(b *testing.B) {
	tr := haggle.Generate(haggle.GenOptions{N: 30}, rng.New(1))
	g := tr.Restrict(20).ToTVEG(0, tveg.DefaultParams(), tveg.Static).EnableCostCache()
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
