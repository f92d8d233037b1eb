package graph

import "fmt"

// CSR is a weighted digraph in compressed-sparse-row form: the out-edges
// of vertex u are the index range Off[u]..Off[u+1] of the parallel To/W
// arrays. Three flat slices replace per-vertex adjacency lists, so a
// whole Dijkstra sweep touches two contiguous arrays instead of chasing
// one pointer per vertex.
//
// Invariants (the "flat data-layout" contract in DESIGN.md):
//
//   - len(Off) == N()+1, Off[0] == 0, Off is non-decreasing,
//     Off[N()] == len(To) == len(W).
//   - Edge order within a vertex is the construction order (BuildCSR is
//     a stable counting sort), so relaxation order — and with it every
//     equal-distance tie — is deterministic and identical to the
//     adjacency-list reference the differential tests use.
//   - A CSR is immutable once built. Memoized auxiliary-graph cores
//     share one CSR across solver instances and goroutines on the
//     strength of this.
type CSR struct {
	Off []int32
	To  []int32
	W   []float64

	maxW float64
}

// N returns the number of vertices.
func (g *CSR) N() int { return len(g.Off) - 1 }

// M returns the number of edges.
func (g *CSR) M() int { return len(g.To) }

// EdgeList accumulates directed edges (u, v, w) before the counting sort
// that lays them out in CSR form. The three parallel slices (rather than
// a []struct) keep BuildCSR's sort phase free of padding and let the
// buffers come from an Arena.
type EdgeList struct {
	U, V []int32
	W    []float64
}

// Add appends one edge.
func (el *EdgeList) Add(u, v int32, w float64) {
	el.U = append(el.U, u)
	el.V = append(el.V, v)
	el.W = append(el.W, w)
}

// Len returns the number of accumulated edges.
func (el *EdgeList) Len() int { return len(el.U) }

// Reset empties the list, keeping capacity.
func (el *EdgeList) Reset() {
	el.U, el.V, el.W = el.U[:0], el.V[:0], el.W[:0]
}

// BuildCSR lays the edge list out as a CSR over n vertices with a stable
// counting sort by source vertex: edges of the same vertex keep their
// Add order. pos maps each edge-list index to its edge index in the
// returned CSR, so callers can carry per-edge payloads (the auxiliary
// graph's transmission metadata) across the permutation; pos is
// allocated from a (and may be returned to it once the payload is
// permuted). The CSR arrays themselves are plain heap allocations — a
// built CSR is immutable and may outlive the arena (memoized cores).
func BuildCSR(n int, el *EdgeList, a *Arena) (*CSR, []int32) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	m := el.Len()
	g := &CSR{
		Off: make([]int32, n+1),
		To:  make([]int32, m),
		W:   make([]float64, m),
	}
	for _, u := range el.U {
		g.Off[u+1]++
	}
	for i := 0; i < n; i++ {
		g.Off[i+1] += g.Off[i]
	}
	cur := a.I32(n)
	copy(cur, g.Off[:n])
	pos := a.I32(m)
	for i := 0; i < m; i++ {
		e := cur[el.U[i]]
		cur[el.U[i]]++
		g.To[e] = el.V[i]
		g.W[e] = el.W[i]
		pos[i] = e
		if el.W[i] > g.maxW {
			g.maxW = el.W[i]
		}
	}
	a.PutI32(cur)
	return g, pos
}

// Transpose returns the reverse graph (every edge u→v becomes v→u) as a
// fresh CSR. The transpose is the stable counting sort of the edges by
// head vertex, matching the order the reference implementation built its
// reverse graph in (iterate u ascending, append to head's list).
func (g *CSR) Transpose(a *Arena) *CSR {
	n := g.N()
	m := g.M()
	//tmedbvet:ignore hotalloc builds a fresh CSR once per solver: hot callers reach this only through the memoized revGraph/WithReverse path
	r := &CSR{
		Off:  make([]int32, n+1),
		To:   make([]int32, m),
		W:    make([]float64, m),
		maxW: g.maxW,
	}
	for _, v := range g.To {
		r.Off[v+1]++
	}
	for i := 0; i < n; i++ {
		r.Off[i+1] += r.Off[i]
	}
	cur := a.I32(n)
	copy(cur, r.Off[:n])
	for u := 0; u < n; u++ {
		for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
			v := g.To[ei]
			e := cur[v]
			cur[v]++
			r.To[e] = int32(u)
			r.W[e] = g.W[ei]
		}
	}
	a.PutI32(cur)
	return r
}

// Reachable returns the set of vertices reachable from src (including
// src) as a boolean slice.
func (g *CSR) Reachable(src int) []bool {
	seen := make([]bool, g.N())
	g.ReachableInto(src, seen, nil)
	return seen
}

// ReachableInto runs the reachability sweep into seen (len N, fully
// overwritten) using stack as scratch (grown as needed; pass nil or a
// recycled buffer).
func (g *CSR) ReachableInto(src int, seen []bool, stack []int32) []int32 {
	for i := range seen {
		seen[i] = false
	}
	stack = append(stack[:0], int32(src))
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
			if v := g.To[ei]; !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return stack
}

// PathTo32Into reconstructs the path src→dst from an int32 predecessor
// array produced by the CSR Dijkstra, writing into buf (appended from
// buf[:0], grown as needed) so hot callers can recycle one buffer
// across reconstructions. It returns the filled buffer and whether dst
// is reachable; on false the returned buffer is buf with undefined
// contents, kept so its capacity survives.
func PathTo32Into(prev []int32, src, dst int, buf []int) ([]int, bool) {
	rev := buf[:0]
	if dst != src && prev[dst] == -1 {
		return rev, false
	}
	for v := dst; v != -1; v = int(prev[v]) {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return rev, false
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, true
}
