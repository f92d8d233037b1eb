package tvg

import "math"

// Temporal centrality metrics. In static graphs, good broadcast relays
// correlate with closeness/betweenness centrality; the temporal
// analogues below use earliest-arrival journeys instead of shortest
// paths. They are analysis tools: the experiments correlate EEDCB's
// relay choices with temporal closeness.

// TemporalCloseness returns, for every node, the closeness centrality
// over the window [t0, tEnd]: the mean of 1/(arrival - t0) across
// reachable other nodes (0 contributes for unreachable ones), times
// 1/(N-1). Higher means the node reaches the network faster.
func (g *Graph) TemporalCloseness(t0, tEnd float64) []float64 {
	out := make([]float64, g.n)
	if g.n < 2 {
		return out
	}
	for i := 0; i < g.n; i++ {
		arr := g.EarliestArrivals(NodeID(i), t0)
		sum := 0.0
		for j, a := range arr {
			if j == i || a > tEnd || math.IsInf(a, 1) {
				continue
			}
			lat := a - t0
			if lat <= 0 {
				lat = math.SmallestNonzeroFloat64
			}
			sum += 1 / lat
		}
		out[i] = sum / float64(g.n-1)
	}
	return out
}

// TemporalEccentricity returns, for every node, the worst-case earliest
// arrival to any other node starting at t0 (+Inf when some node is
// unreachable). The node with minimum eccentricity is the temporal
// center — the best single broadcast source for latency.
func (g *Graph) TemporalEccentricity(t0 float64) []float64 {
	out := make([]float64, g.n)
	for i := 0; i < g.n; i++ {
		arr := g.EarliestArrivals(NodeID(i), t0)
		worst := 0.0
		for j, a := range arr {
			if j == i {
				continue
			}
			if math.IsInf(a, 1) {
				worst = math.Inf(1)
				break
			}
			if a > worst {
				worst = a
			}
		}
		out[i] = worst
	}
	return out
}

// TemporalCenter returns the node with the smallest temporal
// eccentricity at t0 and that eccentricity (the minimum achievable
// broadcast completion time over source choices, ignoring energy).
func (g *Graph) TemporalCenter(t0 float64) (NodeID, float64) {
	ecc := g.TemporalEccentricity(t0)
	best := 0
	for i := 1; i < g.n; i++ {
		if ecc[i] < ecc[best] {
			best = i
		}
	}
	return NodeID(best), ecc[best]
}
