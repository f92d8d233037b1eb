package tvg

import (
	"math"
)

// The three classic journey optimality notions of Bui-Xuan, Ferreira
// and Jarry (cited as [8] by the paper), plus the temporal reachability
// graphs of Whitbeck et al. [10]. These make the TVG substrate a usable
// temporal-graph library on its own, and the fastest/foremost machinery
// doubles as a lower-bound oracle for broadcast latency.

// ForemostJourney returns a journey from src to dst departing no earlier
// than t0 that arrives as early as possible, or nil when dst is
// unreachable. The journey is reconstructed from the earliest-arrival
// relaxation of EarliestArrivals.
func (g *Graph) ForemostJourney(src, dst NodeID, t0 float64) Journey {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst {
		return Journey{}
	}
	const inf = 1e308
	arr := make([]float64, g.n)
	prevHop := make([]Hop, g.n)
	hasPrev := make([]bool, g.n)
	done := make([]bool, g.n)
	for i := range arr {
		arr[i] = inf
	}
	arr[src] = t0
	for {
		best := -1
		for i := 0; i < g.n; i++ {
			if !done[i] && arr[i] < inf && (best == -1 || arr[i] < arr[best]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		done[best] = true
		if NodeID(best) == dst {
			break
		}
		for k, j := range g.neighbors[best] {
			if done[j] {
				continue
			}
			t, ok := g.earliestTransmissionAfter(g.pres[best][k], arr[best])
			if ok && t+g.tau < arr[j] {
				arr[j] = t + g.tau
				prevHop[j] = Hop{From: NodeID(best), To: j, T: t}
				hasPrev[j] = true
			}
		}
	}
	if arr[dst] >= inf {
		return nil
	}
	var rev []Hop
	for cur := dst; cur != src; {
		if !hasPrev[cur] {
			return nil
		}
		h := prevHop[cur]
		rev = append(rev, h)
		cur = h.From
	}
	out := make(Journey, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// ShortestJourney returns a journey from src to dst departing no earlier
// than t0 with the minimum number of hops (topological length), with
// earliest arrival among journeys of that hop count. nil when
// unreachable. A hop-layered DP computes A[h][v], the earliest arrival
// at v using at most h hops, and the journey is reconstructed by
// recomputing each layer's relaxation backwards.
func (g *Graph) ShortestJourney(src, dst NodeID, t0 float64) Journey {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst {
		return Journey{}
	}
	const inf = 1e308
	a := make([][]float64, 1, g.n)
	a[0] = make([]float64, g.n)
	for i := range a[0] {
		a[0][i] = inf
	}
	a[0][src] = t0
	hstar := -1
	for h := 1; h < g.n; h++ {
		cur := a[h-1]
		next := append([]float64(nil), cur...)
		improved := false
		for u := 0; u < g.n; u++ {
			if cur[u] >= inf {
				continue
			}
			for k, v := range g.neighbors[u] {
				t, ok := g.earliestTransmissionAfter(g.pres[u][k], cur[u])
				if ok && t+g.tau < next[v] {
					next[v] = t + g.tau
					improved = true
				}
			}
		}
		a = append(a, next)
		if next[dst] < inf {
			hstar = h
			break
		}
		if !improved {
			return nil
		}
	}
	if hstar == -1 {
		return nil
	}
	// Backward reconstruction: at layer h the hop into cur arrives at
	// a[h][cur]; any predecessor u with a feasible transmission achieving
	// exactly that arrival works.
	var rev []Hop
	cur := dst
	for h := hstar; h > 0; h-- {
		if a[h-1][cur] == a[h][cur] {
			continue // cur was already reached with fewer hops
		}
		found := false
		for k, u := range g.neighbors[cur] {
			if a[h-1][u] >= inf {
				continue
			}
			t, ok := g.earliestTransmissionAfter(g.pres[cur][k], a[h-1][u])
			if ok && t+g.tau == a[h][cur] {
				rev = append(rev, Hop{From: u, To: cur, T: t})
				cur = u
				found = true
				break
			}
		}
		if !found {
			return nil // should not happen: DP and recomputation disagree
		}
	}
	if cur != src {
		return nil
	}
	out := make(Journey, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// FastestJourney returns a journey from src to dst within [t0, tEnd]
// minimizing the duration arrival − departure, or nil when unreachable.
// It scans candidate departure times (the starts of src's transmission
// opportunities) and runs a foremost search from each.
func (g *Graph) FastestJourney(src, dst NodeID, t0, tEnd float64) Journey {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst {
		return Journey{}
	}
	var best Journey
	bestDur := math.Inf(1)
	for _, dep := range g.departureCandidates(src, t0, tEnd) {
		j := g.ForemostJourney(src, dst, dep)
		if len(j) == 0 {
			continue
		}
		if j.Arrival(g) > tEnd {
			continue
		}
		if dur := j.Arrival(g) - j.Departure(); dur < bestDur {
			bestDur = dur
			best = j
		}
	}
	return best
}

// departureCandidates lists the times at which a fastest journey from
// src could depart: t0 plus the start of every transmission opportunity
// of ANY edge within [t0, tEnd] (Bui-Xuan et al.: an optimal departure
// can always be shifted forward to the next edge-appearance time, so
// appearance times suffice). The downstream edges matter too — the
// fastest journey often departs exactly when a later hop's contact
// opens, eliminating the wait at intermediate nodes.
func (g *Graph) departureCandidates(src NodeID, t0, tEnd float64) []float64 {
	out := []float64{t0}
	for i := 0; i < g.n; i++ {
		for k, j := range g.neighbors[i] {
			if NodeID(i) > j {
				continue // each edge once
			}
			for _, iv := range g.pres[i][k].Erode(g.tau).Intervals() {
				if iv.Start >= t0 && iv.Start <= tEnd {
					out = append(out, iv.Start)
				}
			}
		}
	}
	return out
}

// Reachability reports, for every node, whether a journey from src
// departing at or after t1 can arrive by t2 — one row of the temporal
// reachability graph of Whitbeck et al. An unreachable node stays
// unreachable for t2 = +Inf.
func (g *Graph) Reachability(src NodeID, t1, t2 float64) []bool {
	arr := g.EarliestArrivals(src, t1)
	out := make([]bool, g.n)
	for i, a := range arr {
		out[i] = a <= t2 && !math.IsInf(a, 1)
	}
	return out
}

// ReachabilityMatrix returns the full temporal reachability graph for
// the window [t1, t2]: m[i][j] is true when i can reach j.
func (g *Graph) ReachabilityMatrix(t1, t2 float64) [][]bool {
	out := make([][]bool, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.Reachability(NodeID(i), t1, t2)
	}
	return out
}
