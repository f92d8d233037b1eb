package graph

import (
	"container/heap"
	"fmt"
	"math"
)

// This file holds the reference implementation the bucket-queue
// Dijkstra is differentially tested against: an adjacency-list digraph
// with a container/heap Dijkstra, all-pairs and reachability, plus the
// FromDigraph conversion that drives both representations through the
// same instances.

// Edge is a directed edge u→v with non-negative weight W.
type Edge struct {
	To int
	W  float64
}

// Digraph is a weighted directed graph over vertices 0..N-1 stored as
// adjacency lists.
type Digraph struct {
	adj [][]Edge
	m   int
}

// New creates a digraph with n vertices and no edges.
func New(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{adj: make([][]Edge, n)}
}

// N returns the number of vertices.
func (g *Digraph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Digraph) M() int { return g.m }

// AddEdge inserts the directed edge u→v with weight w >= 0.
func (g *Digraph) AddEdge(u, v int, w float64) {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.adj)))
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid edge weight %g", w))
	}
	g.adj[u] = append(g.adj[u], Edge{v, w})
	g.m++
}

// Out returns the outgoing edges of u. The slice must not be modified.
func (g *Digraph) Out(u int) []Edge { return g.adj[u] }

type pqItem struct {
	v    int
	dist float64
}

type pq []pqItem

func (p pq) Len() int { return len(p) }

// Less orders by (dist, v) lexicographically. The vertex tie-break makes
// the pop order — and therefore the relaxation order and predecessor
// choices on equal-distance ties — canonical, so the heap Dijkstra and
// the bucket-queue Dijkstra (see bucketq.go) produce bitwise-identical
// dist/prev arrays. The differential tests in csr_test.go rely on this.
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].v < p[j].v
}
func (p pq) Swap(i, j int)       { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x interface{}) { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() interface{} {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// ShortestPaths runs Dijkstra from src and returns the distance array and
// the predecessor array (prev[v] = -1 for src and unreachable vertices).
func (g *Digraph) ShortestPaths(src int) (dist []float64, prev []int) {
	n := len(g.adj)
	dist = make([]float64, n)
	prev = make([]int, n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.W; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = it.v
				heap.Push(q, pqItem{e.To, nd})
			}
		}
	}
	return dist, prev
}

// PathTo reconstructs the path src→dst from a predecessor array returned
// by ShortestPaths(src). It returns nil when dst is unreachable.
func PathTo(prev []int, src, dst int) []int {
	if dst != src && prev[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// AllPairs runs Dijkstra from every vertex, returning dist[u][v] and
// prev[u][v] matrices.
func (g *Digraph) AllPairs() (dist [][]float64, prev [][]int) {
	n := len(g.adj)
	dist = make([][]float64, n)
	prev = make([][]int, n)
	for u := 0; u < n; u++ {
		dist[u], prev[u] = g.ShortestPaths(u)
	}
	return dist, prev
}

// Reachable returns the set of vertices reachable from src (including
// src) as a boolean slice.
func (g *Digraph) Reachable(src int) []bool {
	seen := make([]bool, len(g.adj))
	stack := []int{src}
	seen[src] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.adj[u] {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return seen
}

// FromDigraph converts a Digraph to CSR form, preserving per-vertex edge
// order. The differential tests drive both representations through the
// same instances with this.
func FromDigraph(d *Digraph) *CSR {
	n := d.N()
	g := &CSR{
		Off: make([]int32, n+1),
		To:  make([]int32, 0, d.M()),
		W:   make([]float64, 0, d.M()),
	}
	for u := 0; u < n; u++ {
		for _, e := range d.Out(u) {
			g.To = append(g.To, int32(e.To))
			g.W = append(g.W, e.W)
			if e.W > g.maxW {
				g.maxW = e.W
			}
		}
		g.Off[u+1] = int32(len(g.To))
	}
	return g
}
