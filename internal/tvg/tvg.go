// Package tvg implements deterministic time-varying graphs (§III-A):
// G = (V, E, T, ρ, ζ) with a finite node set, edges whose presence
// function ρ: E×T → {0,1} is a set of half-open intervals, and a constant
// latency function ζ(e, t) = τ. It provides the ρ_τ connectivity test of
// §IV, journeys (Definition 3.1) with foremost-arrival search, and the
// per-node adjacent partitions P_i^ad of §V (Eq. 9).
package tvg

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/interval"
	"repro/internal/partition"
)

// NodeID identifies a node; nodes are numbered 0..N-1.
type NodeID int

// EdgeKey identifies an undirected edge; the canonical form has A < B.
type EdgeKey struct {
	A, B NodeID
}

// MakeEdgeKey returns the canonical key for the pair (i, j).
func MakeEdgeKey(i, j NodeID) EdgeKey {
	if i > j {
		i, j = j, i
	}
	return EdgeKey{i, j}
}

// Graph is a deterministic continuous-time TVG. Edges are undirected:
// wireless contacts are symmetric. The zero value is not usable; create
// graphs with New.
type Graph struct {
	n    int
	span interval.Interval
	tau  float64
	// neighbors[i] lists the nodes that share at least one presence
	// interval with i, kept sorted for determinism. pres[i] runs
	// parallel to it: pres[i][k] is the presence of the pair
	// (i, neighbors[i][k]), and both endpoints hold the same Set, so
	// every presence query is a slot read or a binary search, never a
	// hash.
	neighbors [][]NodeID
	pres      [][]interval.Set
	// version counts topology mutations (AddContact, RemoveContact and
	// RetimeChannel calls that change presence). Memo caches downstream
	// (dts, auxgraph) key on the (graph ID, version) pair, so a mutated
	// graph never serves a stale cached artifact.
	version uint64
	// id is the process-unique identity stamped by New. Downstream memo
	// caches key on it instead of the *Graph pointer: in a long-running
	// process a collected graph's address can be recycled for a fresh
	// graph (also at version 0), and a pointer-keyed cache would then
	// silently serve the dead graph's artifacts. IDs are never reused.
	id uint64
}

// nextGraphID hands out process-unique graph identities; 0 is reserved
// as "no graph" so a zero-value key never matches a real one.
var nextGraphID atomic.Uint64

// New creates a TVG with n nodes over the time span, with uniform edge
// traversal time tau >= 0.
func New(n int, span interval.Interval, tau float64) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("tvg: non-positive node count %d", n))
	}
	if tau < 0 {
		panic(fmt.Sprintf("tvg: negative traversal time %g", tau))
	}
	return &Graph{
		n:         n,
		span:      span,
		tau:       tau,
		neighbors: make([][]NodeID, n),
		pres:      make([][]interval.Set, n),
		id:        nextGraphID.Add(1),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Span returns the time span T of the graph.
func (g *Graph) Span() interval.Interval { return g.span }

// Tau returns the uniform edge traversal time τ.
func (g *Graph) Tau() float64 { return g.tau }

// AddContact records that the edge (i, j) is present during iv, unioning
// with any previously recorded presence.
func (g *Graph) AddContact(i, j NodeID, iv interval.Interval) {
	if i == j {
		panic("tvg: self-loop contact")
	}
	g.checkNode(i)
	g.checkNode(j)
	if iv.Empty() {
		return
	}
	a, ok := g.slot(i, j)
	b, _ := g.slot(j, i)
	if !ok {
		g.insertSlot(i, j, a)
		g.insertSlot(j, i, b)
	}
	s := g.pres[i][a].Add(iv)
	g.pres[i][a], g.pres[j][b] = s, s
	g.version++
}

// slot returns the position of j in neighbors[i] and whether j is
// there; the position is where j would be inserted when it is not. An
// out-of-range i has no neighbors.
func (g *Graph) slot(i, j NodeID) (int, bool) {
	if uint(i) >= uint(g.n) {
		return 0, false
	}
	return slices.BinarySearch(g.neighbors[i], j)
}

// insertSlot makes j the k-th neighbor of i, with empty presence.
func (g *Graph) insertSlot(i, j NodeID, k int) {
	g.neighbors[i] = slices.Insert(g.neighbors[i], k, j)
	g.pres[i] = slices.Insert(g.pres[i], k, interval.Set{})
}

// Version returns the topology mutation counter: it changes whenever a
// contact is added, removed or retimed, and is stable otherwise. Caches
// keyed on (graph ID, version) are invalidated exactly when the
// topology changes.
func (g *Graph) Version() uint64 { return g.version }

// ID returns the graph's process-unique identity: a monotonic counter
// stamped at construction and never reused, so two distinct graphs never
// share an ID even if one is garbage-collected and the other happens to
// be allocated at the same address. Memo caches key on (ID, Version).
func (g *Graph) ID() uint64 { return g.id }

// SetIDForTest overrides the graph's identity. It exists solely so
// regression tests can force two distinct graphs onto one ID and prove a
// cache keyed on recycled identities serves stale artifacts; production
// code must never call it.
func (g *Graph) SetIDForTest(id uint64) { g.id = id }

func (g *Graph) checkNode(i NodeID) {
	if i < 0 || int(i) >= g.n {
		panic(fmt.Sprintf("tvg: node %d out of range [0,%d)", i, g.n))
	}
}

// Presence returns the presence set of the edge (i, j): the times at
// which ρ(e_{i,j}, ·) = 1.
func (g *Graph) Presence(i, j NodeID) interval.Set {
	if k, ok := g.slot(i, j); ok {
		return g.pres[i][k]
	}
	return interval.Set{}
}

// Rho evaluates the presence function ρ(e_{i,j}, t).
func (g *Graph) Rho(i, j NodeID, t float64) bool {
	return g.Presence(i, j).Contains(t)
}

// RhoTau evaluates ρ_τ(e_{i,j}, t): whether i and j stay connected during
// the whole closed window [t, t+τ], the condition for completing one
// transmission started at t (§IV).
func (g *Graph) RhoTau(i, j NodeID, t float64) bool {
	return g.Presence(i, j).ContainsWindow(t, g.tau)
}

// EverNeighbors returns the nodes that are ever connected to i, sorted.
// The returned slice must not be modified.
func (g *Graph) EverNeighbors(i NodeID) []NodeID {
	g.checkNode(i)
	return g.neighbors[i]
}

// InRange appends to dst every j with RhoTau(i, j, t), in EverNeighbors
// order, and returns the extended slice: the receivers of a
// transmission by i at t. It walks i's presence slots beside its
// neighbor list, so no pair is looked up.
func (g *Graph) InRange(dst []NodeID, i NodeID, t float64) []NodeID {
	g.checkNode(i)
	for k, s := range g.pres[i] {
		if s.ContainsWindow(t, g.tau) {
			dst = append(dst, g.neighbors[i][k])
		}
	}
	return dst
}

// DegreeAt returns the number of nodes adjacent to i at time t.
func (g *Graph) DegreeAt(i NodeID, t float64) int {
	g.checkNode(i)
	d := 0
	for _, s := range g.pres[i] {
		if s.ContainsWindow(t, g.tau) {
			d++
		}
	}
	return d
}

// ActivePoints appends to dst the indices p of the ascending points xs
// at which i has at least one neighbor (DegreeAt(i, xs[p]) > 0) and
// returns the extended slice. One merge-walk answers every point: with
// i's incident presence intervals sorted by Start, a neighbor is
// present over the window [x, x+τ] iff some interval with Start <= x
// ends after x+τ, i.e. iff x+τ lies below the running maximum End of
// the intervals started by x. The test is ContainsWindow's own
// expression, so the answer equals DegreeAt(i, x) > 0 bit for bit.
// Only intervals that end after xs[0] and start by xs[len(xs)-1] can
// decide a point; each pair's canonical set is binary-searched for that
// run, so the walk and its sort skip the rest of the trace.
func (g *Graph) ActivePoints(i NodeID, xs []float64, dst []int) []int {
	g.checkNode(i)
	if len(xs) == 0 {
		return dst
	}
	first, last := xs[0], xs[len(xs)-1]
	deciding := func(s interval.Set) []interval.Interval {
		all := s.Intervals()
		lo := sort.Search(len(all), func(k int) bool { return all[k].End > first })
		hi := sort.Search(len(all), func(k int) bool { return all[k].Start > last })
		return all[lo:max(lo, hi)]
	}
	total := 0
	for _, s := range g.pres[i] {
		total += len(deciding(s))
	}
	ivs := make([]interval.Interval, 0, total)
	for _, s := range g.pres[i] {
		ivs = append(ivs, deciding(s)...)
	}
	slices.SortFunc(ivs, func(a, b interval.Interval) int { return cmp.Compare(a.Start, b.Start) })
	maxEnd := math.Inf(-1)
	k := 0
	for p, x := range xs {
		for ; k < len(ivs) && ivs[k].Start <= x; k++ {
			maxEnd = max(maxEnd, ivs[k].End)
		}
		if (g.tau == 0 && x < maxEnd) || (g.tau > 0 && x+g.tau < maxEnd) {
			dst = append(dst, p)
		}
	}
	return dst
}

// AverageDegreeAt returns the mean node degree at time t (Fig. 7 metric).
func (g *Graph) AverageDegreeAt(t float64) float64 {
	total := 0
	for i := 0; i < g.n; i++ {
		total += g.DegreeAt(NodeID(i), t)
	}
	return float64(total) / float64(g.n)
}

// AverageDegreeOver returns the mean node degree over the window
// [start, end), sampled at `samples` evenly spaced times (the Fig. 7
// "average degree every 500 s" metric).
func (g *Graph) AverageDegreeOver(start, end float64, samples int) float64 {
	if samples < 1 {
		samples = 1
	}
	total := 0.0
	for k := 0; k < samples; k++ {
		t := start + (end-start)*(float64(k)+0.5)/float64(samples)
		total += g.AverageDegreeAt(t)
	}
	return total / float64(samples)
}

// PairAdjacentPartition returns P_{i,j}^ad: the partition of the span
// into adjacent and non-adjacent intervals of the pair (i, j), in the
// ρ_τ sense.
func (g *Graph) PairAdjacentPartition(i, j NodeID) partition.Partition {
	eroded := g.Presence(i, j).Erode(g.tau)
	pts := eroded.Breakpoints(g.span, nil)
	return partition.New(g.span.Start, g.span.End, pts...)
}

// AdjacentPartition returns P_i^ad (Eq. 9): the combination of
// P_{i,j}^ad over all other nodes j. Within each interval of the result,
// the set of nodes adjacent to i is unchanged.
func (g *Graph) AdjacentPartition(i NodeID) partition.Partition {
	g.checkNode(i)
	var pts []float64
	for _, s := range g.pres[i] {
		pts = s.Erode(g.tau).Breakpoints(g.span, pts)
	}
	return partition.New(g.span.Start, g.span.End, pts...)
}

// AdjacentPartitions returns P_V^ad = {P_1^ad, ..., P_N^ad}.
func (g *Graph) AdjacentPartitions() []partition.Partition {
	out := make([]partition.Partition, g.n)
	for i := 0; i < g.n; i++ {
		out[i] = g.AdjacentPartition(NodeID(i))
	}
	return out
}

// earliestTransmissionAfter returns the earliest time t >= t0 at which a
// transmission over an edge with presence s can start (ρ_τ(e, t) = 1),
// or ok = false if no such time exists within the span.
func (g *Graph) earliestTransmissionAfter(s interval.Set, t0 float64) (float64, bool) {
	eroded := s.Erode(g.tau)
	for _, iv := range eroded.Intervals() {
		cand := math.Max(t0, iv.Start)
		// Eroded intervals are half-open: cand must lie strictly before
		// the interval end, and the transmission must finish within the
		// span.
		if cand < iv.End && cand+g.tau <= g.span.End {
			return cand, true
		}
	}
	return 0, false
}

// EarliestArrivals computes, for every node, the foremost journey arrival
// time from src when the packet originates at src at time t0. Nodes that
// are unreachable get +Inf. This is the temporal analogue of Dijkstra:
// nodes are settled in order of earliest arrival, and each settled node
// relaxes its neighbors through the earliest feasible transmission.
func (g *Graph) EarliestArrivals(src NodeID, t0 float64) []float64 {
	g.checkNode(src)
	inf := math.Inf(1)
	arr := make([]float64, g.n)
	done := make([]bool, g.n)
	for i := range arr {
		arr[i] = inf
	}
	arr[src] = t0
	for {
		// pick unsettled node with minimum arrival
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
		for k, j := range g.neighbors[best] {
			if done[j] {
				continue
			}
			t, ok := g.earliestTransmissionAfter(g.pres[best][k], arr[best])
			if ok && t+g.tau < arr[j] {
				arr[j] = t + g.tau
			}
		}
	}
	return arr
}

// Hop is one couple (e, t) of a journey: a traversal of the edge from
// From to To starting at time T.
type Hop struct {
	From, To NodeID
	T        float64
}

// Journey is a sequence of hops (Definition 3.1).
type Journey []Hop

// Departure returns the starting time t_1 of the journey.
func (j Journey) Departure() float64 {
	if len(j) == 0 {
		return 0
	}
	return j[0].T
}

// Arrival returns the ending time t_k + τ of the journey in g.
func (j Journey) Arrival(g *Graph) float64 {
	if len(j) == 0 {
		return 0
	}
	return j[len(j)-1].T + g.tau
}

// Validate checks Definition 3.1: consecutive hops chain head-to-tail,
// every hop's edge is present during its whole traversal window, hops are
// properly ordered (t_{l+1} >= t_l + τ), and no node repeats (the paper
// considers only journeys without circles).
func (j Journey) Validate(g *Graph) error {
	seen := make(map[NodeID]bool, len(j)+1)
	for l, h := range j {
		if h.From == h.To {
			return fmt.Errorf("tvg: hop %d is a self loop", l)
		}
		if !g.RhoTau(h.From, h.To, h.T) {
			return fmt.Errorf("tvg: hop %d edge (%d,%d) not present during [%g,%g]",
				l, h.From, h.To, h.T, h.T+g.tau)
		}
		if l > 0 {
			if j[l-1].To != h.From {
				return fmt.Errorf("tvg: hop %d does not chain from hop %d", l, l-1)
			}
			if h.T < j[l-1].T+g.tau {
				return fmt.Errorf("tvg: hop %d departs at %g before previous arrival %g",
					l, h.T, j[l-1].T+g.tau)
			}
		}
		if seen[h.From] {
			return fmt.Errorf("tvg: node %d repeated (journey has a circle)", h.From)
		}
		seen[h.From] = true
	}
	if len(j) > 0 && seen[j[len(j)-1].To] {
		return fmt.Errorf("tvg: terminal node %d repeated", j[len(j)-1].To)
	}
	return nil
}

// NonStop reports whether the journey is a non-stop journey:
// t_{l+1} = t_l + τ for every consecutive pair.
func (j Journey) NonStop(g *Graph) bool {
	for l := 1; l < len(j); l++ {
		if j[l].T != j[l-1].T+g.tau {
			return false
		}
	}
	return true
}
