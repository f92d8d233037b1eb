package main

import (
	"fmt"

	"repro"
	"repro/internal/auxgraph"
	"repro/internal/dts"
	"repro/internal/graph"
	"repro/internal/steiner"
)

const probeT0 = 9000.0

// probe times the pipeline's stages one by one — DTS build, auxiliary
// graph build, one bucket-queue Dijkstra, the level-2 recursive greedy —
// serially and without memos, on N ∈ {20, 30} × delay ∈ {2000, 4000}
// (static channel, source 0) of the seed's trace. It adds each stage's
// total time and the structure sizes to m. Every traced run ends with
// it, so the stage timings exist on every workload.
func probe(s *session, sp *tracer, m map[string]float64) error {
	tr := tmedb.GenerateTrace(tmedb.TraceOptions{N: 30}, s.seed)
	ns, delays := []int{20, 30}, []float64{2000, 4000}
	if s.smoke {
		ns, delays = ns[:1], delays[:1]
	}
	var points, verts, edges float64
	for _, n := range ns {
		g := tr.Restrict(n).ToTVEG(0, tmedb.DefaultParams(), tmedb.Static).EnableCostCache()
		for _, delay := range delays {
			parent := sp.begin(fmt.Sprintf("probe N=%d delay=%g", n, delay), 0)
			id := sp.begin("dts.build", parent)
			d, err := dts.Build(g.Graph, probeT0, probeT0+delay, dts.Options{NoMemo: true, Workers: 1})
			sp.end(id)
			if err != nil {
				return err
			}
			id = sp.begin("auxgraph.build", parent)
			a, err := auxgraph.Build(g, d, auxgraph.Options{NoMemo: true, Workers: 1})
			sp.end(id)
			if err != nil {
				return err
			}
			points += float64(d.TotalPoints())
			st := a.Stats()
			verts += float64(st.Vertices)
			edges += float64(st.Edges)

			root := a.SourceVertex(0)
			dist, prev, sc := make([]float64, a.G.N()), make([]int32, a.G.N()), graph.GetScratch()
			id = sp.begin("graph.dijkstra", parent)
			a.G.ShortestPathsInto(root, dist, prev, sc)
			sp.end(id)
			graph.PutScratch(sc)

			reach := a.G.Reachable(root)
			var terms []int
			for i := 0; i < n; i++ {
				if v := a.Vertex(tmedb.NodeID(i), d.Last(tmedb.NodeID(i))); reach[v] {
					terms = append(terms, v)
				}
			}
			id = sp.begin("steiner.solve", parent)
			solver := steiner.NewSolver(a.G).WithReverse(a.Reverse()).SetWorkers(1)
			_, err = solver.RecursiveGreedy(root, terms, 2)
			solver.Release()
			sp.end(id)
			sp.end(parent)
			if err != nil {
				return err
			}
		}
	}
	for _, stage := range []string{"dts.build", "auxgraph.build", "graph.dijkstra", "steiner.solve"} {
		total := 0.0
		for _, x := range sp.durationsMS(stage) {
			total += x
		}
		m[stage+"_ms"] = total
	}
	m["dts.points"] = points
	m["auxgraph.vertices"] = verts
	m["auxgraph.edges"] = edges
	return nil
}
