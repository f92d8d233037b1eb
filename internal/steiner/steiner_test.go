package steiner

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// Verify checks that the solution is sound for the instance: every edge
// is a graph edge whose claimed weight is the cheapest parallel u→v
// weight bit for bit (the solver copies weights from g.W, so no slack
// is due), and every terminal is reachable from the root through
// solution edges.
func (s Solution) Verify(g *graph.CSR, terminals []int) error {
	for _, e := range s.edges {
		cheapest := math.Inf(1)
		for ei := g.Off[e.u]; ei < g.Off[e.u+1]; ei++ {
			if g.To[ei] == e.v && g.W[ei] < cheapest {
				cheapest = g.W[ei]
			}
		}
		if math.IsInf(cheapest, 1) {
			return fmt.Errorf("steiner: edge (%d,%d,w=%g) not in graph", e.u, e.v, e.w)
		}
		if math.Float64bits(cheapest) != math.Float64bits(e.w) {
			return fmt.Errorf("steiner: edge (%d,%d) claims weight %g, the graph's cheapest is %g", e.u, e.v, e.w, cheapest)
		}
	}
	reach := s.reachableFromRoot()
	for _, t := range terminals {
		if !reach[t] {
			return fmt.Errorf("steiner: terminal %d not reachable from root %d", t, s.Root)
		}
	}
	return nil
}

// reachableFromRoot returns the vertices reachable from the root using
// only solution edges.
func (s Solution) reachableFromRoot() map[int]bool {
	seen := map[int]bool{s.Root: true}
	for grew := true; grew; {
		grew = false
		for _, e := range s.edges {
			if seen[int(e.u)] && !seen[int(e.v)] {
				seen[int(e.v)] = true
				grew = true
			}
		}
	}
	return seen
}

// starGadget: hub structure where the greedy-density approach pays off.
// root 0 → hub 1 (cost 10), hub 1 → terminals 2,3,4 (cost 1 each);
// also direct expensive edges 0→t (cost 9 each).
func starGadget() (*graph.CSR, []int) {
	var el graph.EdgeList
	el.Add(0, 1, 10)
	for _, t := range []int32{2, 3, 4} {
		el.Add(1, t, 1)
		el.Add(0, t, 9)
	}
	return csrOf(5, &el), []int{2, 3, 4}
}

// csrOf lays el out as a CSR over n vertices. BuildCSR's stable counting
// sort keeps each vertex's edges in Add order.
func csrOf(n int, el *graph.EdgeList) *graph.CSR {
	g, _ := graph.BuildCSR(n, el, nil)
	return g
}

func TestShortestPathTreeStar(t *testing.T) {
	g, terms := starGadget()
	s := NewSolver(g)
	sol, err := s.ShortestPathTree(0, terms)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(g, terms); err != nil {
		t.Fatal(err)
	}
	// SPT takes the three direct 9-cost edges: total 27.
	if got := sol.Cost(); math.Abs(got-27) > 1e-9 {
		t.Errorf("SPT cost = %g, want 27", got)
	}
}

func TestRecursiveGreedyLevel2BeatsSPTOnStar(t *testing.T) {
	g, terms := starGadget()
	s := NewSolver(g)
	sol, err := s.RecursiveGreedy(0, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(g, terms); err != nil {
		t.Fatal(err)
	}
	// Optimal: 0→1 (10) + three hub edges (3) = 13.
	if got := sol.Cost(); math.Abs(got-13) > 1e-9 {
		t.Errorf("RG2 cost = %g, want 13 (optimal)", got)
	}
}

func TestRecursiveGreedyLevel1EqualsGreedySPT(t *testing.T) {
	g, terms := starGadget()
	s := NewSolver(g)
	sol, err := s.RecursiveGreedy(0, terms, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(g, terms); err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(); math.Abs(got-27) > 1e-9 {
		t.Errorf("RG1 cost = %g, want 27 (direct paths)", got)
	}
}

func TestUnreachableTerminal(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	s := NewSolver(csrOf(3, &el))
	if _, err := s.ShortestPathTree(0, []int{2}); err == nil {
		t.Error("SPT should fail on unreachable terminal")
	}
	if _, err := s.RecursiveGreedy(0, []int{2}, 2); err == nil {
		t.Error("RG should fail on unreachable terminal")
	}
}

func TestBadLevel(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	s := NewSolver(csrOf(2, &el))
	if _, err := s.RecursiveGreedy(0, []int{1}, 0); err == nil {
		t.Error("level 0 should error")
	}
}

func TestSingleTerminalIsShortestPath(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	el.Add(1, 2, 1)
	el.Add(0, 2, 5)
	el.Add(2, 3, 1)
	s := NewSolver(csrOf(4, &el))
	for _, level := range []int{1, 2, 3} {
		sol, err := s.RecursiveGreedy(0, []int{3}, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if got := sol.Cost(); math.Abs(got-3) > 1e-9 {
			t.Errorf("level %d cost = %g, want 3", level, got)
		}
	}
}

func TestTerminalEqualsRoot(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	c := csrOf(2, &el)
	s := NewSolver(c)
	sol, err := s.ShortestPathTree(0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(c, []int{0, 1}); err != nil {
		t.Error(err)
	}
}

func TestSharedPathNotDoubleCounted(t *testing.T) {
	// 0→1 (10), 1→2 (1), 1→3 (1): both terminals share the 0→1 edge.
	var el graph.EdgeList
	el.Add(0, 1, 10)
	el.Add(1, 2, 1)
	el.Add(1, 3, 1)
	s := NewSolver(csrOf(4, &el))
	sol, err := s.ShortestPathTree(0, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := sol.Cost(); math.Abs(got-12) > 1e-9 {
		t.Errorf("cost = %g, want 12 (shared edge counted once)", got)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g, terms := starGadget()
	s := NewSolver(g)
	sol, _ := s.RecursiveGreedy(0, terms, 2)
	a := sol.Edges()
	b := sol.Edges()
	if len(a) != len(b) {
		t.Fatal("Edges() length changed between calls")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Error("Edges() order not deterministic")
		}
	}
}

func TestVerifyCatchesFakeEdge(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	sol := newSolution(0)
	sol.addEdge(0, 2, 1) // not in graph
	if err := sol.Verify(csrOf(3, &el), nil); err == nil {
		t.Error("Verify should reject edge missing from graph")
	}
}

// TestVerifyCatchesUnderclaimedTinyWeight solves the star gadget with
// every weight scaled by 1e-18, the scale of the auxiliary graph's
// positive weights on a 20-node static instance. A claimed weight half
// the graph's must fail; an absolute slack such as 1e-12 would accept
// any weight at this scale.
func TestVerifyCatchesUnderclaimedTinyWeight(t *testing.T) {
	g, terms := starGadget()
	for i := range g.W {
		g.W[i] *= 1e-18
	}
	s := NewSolver(g)
	defer s.Release()
	sol, err := s.RecursiveGreedy(0, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(g, terms); err != nil {
		t.Fatal(err)
	}
	for i := range sol.edges {
		bad := Solution{Root: sol.Root, edges: slices.Clone(sol.edges)}
		bad.edges[i].w /= 2
		if bad.Verify(g, terms) == nil {
			t.Errorf("Verify accepted edge (%d,%d) at half its weight %g", bad.edges[i].u, bad.edges[i].v, sol.edges[i].w)
		}
	}
}

func randomInstance(r *rand.Rand, n, m, k int) (*graph.CSR, []int) {
	var el graph.EdgeList
	// a random backbone guaranteeing reachability from 0
	order := r.Perm(n)
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	if pos[0] != 0 {
		order[pos[0]], order[0] = order[0], order[pos[0]]
	}
	for i := 1; i < n; i++ {
		el.Add(int32(order[r.Intn(i)]), int32(order[i]), 1+r.Float64()*10)
	}
	for e := 0; e < m; e++ {
		el.Add(int32(r.Intn(n)), int32(r.Intn(n)), 1+r.Float64()*10)
	}
	terms := make([]int, 0, k)
	for _, v := range r.Perm(n)[:k] {
		if v != 0 {
			terms = append(terms, v)
		}
	}
	return csrOf(n, &el), terms
}

func TestQuickSolutionsValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, terms := randomInstance(r, 15, 30, 6)
		s := NewSolver(g)
		for _, level := range []int{1, 2} {
			sol, err := s.RecursiveGreedy(0, terms, level)
			if err != nil {
				return false
			}
			if sol.Verify(g, terms) != nil {
				return false
			}
		}
		spt, err := s.ShortestPathTree(0, terms)
		return err == nil && spt.Verify(g, terms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickCostAtLeastMaxShortestPath(t *testing.T) {
	// Any solution must cost at least the distance to the farthest
	// terminal (a lower bound on OPT).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, terms := randomInstance(r, 12, 25, 5)
		s := NewSolver(g)
		lb := 0.0
		for _, x := range terms {
			if d := s.Dist(0, x); d > lb {
				lb = d
			}
		}
		for _, level := range []int{1, 2} {
			sol, err := s.RecursiveGreedy(0, terms, level)
			if err != nil || sol.Cost() < lb-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLevel3RunsOnSmallInstance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g, terms := randomInstance(r, 10, 15, 4)
	s := NewSolver(g)
	sol, err := s.RecursiveGreedy(0, terms, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Verify(g, terms); err != nil {
		t.Error(err)
	}
	// Level 3 should not be worse than level 1 on this gadget family.
	sol1, _ := s.RecursiveGreedy(0, terms, 1)
	if sol.Cost() > sol1.Cost()*3+1e-9 {
		t.Errorf("level 3 cost %g suspiciously worse than level 1 %g", sol.Cost(), sol1.Cost())
	}
}

func TestPrunedRemovesDeadBranch(t *testing.T) {
	sol := newSolution(0)
	sol.addEdge(0, 1, 1) // on the path to terminal 2
	sol.addEdge(1, 2, 1)
	sol.addEdge(1, 3, 5) // dead branch: 3 is not a terminal
	sol.addEdge(4, 2, 7) // unreachable tail: 4 not reachable from root
	sol.prune([]int{2})
	if sol.NumEdges() != 2 {
		t.Fatalf("pruned edges = %v", sol.Edges())
	}
	if sol.Cost() != 2 {
		t.Errorf("pruned cost = %g, want 2", sol.Cost())
	}
}

// TestPrunedFixpointCascade prunes the dead chain 1→5→6. A prune that
// tested heads against the solution minus removed edges would have
// needed a second pass for 1→5 once 5→6 was gone; the one-pass test
// drops both at once, as neither 5 nor 6 reaches a terminal.
func TestPrunedFixpointCascade(t *testing.T) {
	sol := newSolution(0)
	sol.addEdge(0, 1, 1)
	sol.addEdge(1, 2, 1)
	sol.addEdge(1, 5, 3)
	sol.addEdge(5, 6, 3)
	sol.prune([]int{2})
	if sol.NumEdges() != 2 {
		t.Fatalf("pruned edges = %v, want the 0→1→2 chain", sol.Edges())
	}
}

// TestPruneKeepsCheapestDuplicate pins canonicalization to the retired
// edge map's rule: of the edges added for one (u, v) pair, the one of
// smallest weight survives. The solver adds every copy of a pair with
// minEdge(u, v)'s weight, so its equal-weight copies are identical and
// the sort need not be stable; these cases add distinct weights by
// hand. The long case gives each pair 40 copies, past the length up to
// which slices.SortFunc sorts by insertion, so its unstable path runs.
func TestPruneKeepsCheapestDuplicate(t *testing.T) {
	long := make([]float64, 40)
	for i := range long {
		long[i] = float64((i*17)%40 + 1) // 1..40 in scrambled order
	}
	for _, tc := range []struct {
		name string
		ws   []float64 // weights added for the pairs 0→1 and 1→2, in order
		want float64
	}{
		{"cheaper later", []float64{2, 1, 3}, 1},
		{"cheaper first", []float64{1, 3, 2}, 1},
		{"repeated minimum", []float64{4, 1, 1, 2}, 1},
		{"long run", long, 1},
	} {
		sol := newSolution(0)
		ref := newRefSolution(0)
		sol.addEdge(0, 2, 5)
		ref.addEdge(0, 2, 5)
		for _, w := range tc.ws {
			sol.addEdge(0, 1, w)
			ref.addEdge(0, 1, w)
			sol.addEdge(1, 2, w)
			ref.addEdge(1, 2, w)
		}
		sol.prune([]int{1, 2})
		want := [][3]float64{{0, 1, tc.want}, {0, 2, 5}, {1, 2, tc.want}}
		if !sameEdges(sol.Edges(), want) {
			t.Errorf("%s: edges %v, want %v", tc.name, sol.Edges(), want)
		}
		if refEdges := ref.pruned([]int{1, 2}).sortedEdges(); !sameEdges(refEdges, want) {
			t.Errorf("%s: the edge map keeps %v, want %v", tc.name, refEdges, want)
		}
	}
}

func TestPrunedKeepsCoverage(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		g, terms := randomInstance(r, 14, 30, 5)
		s := NewSolver(g)
		sol, err := s.RecursiveGreedy(0, terms, 2)
		if err != nil {
			continue
		}
		if err := sol.Verify(g, terms); err != nil {
			t.Fatalf("trial %d: pruned solution broken: %v", trial, err)
		}
	}
}

// TestReleaseRecyclesBuffers exercises the solver lifecycle: Release
// hands the distance caches back, a second solver (which will typically
// be served the recycled buffers) must still produce identical
// solutions, and double-Release is harmless.
func TestReleaseRecyclesBuffers(t *testing.T) {
	g, terms := starGadget()
	s1 := NewSolver(g)
	sol1, err := s1.RecursiveGreedy(0, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges1 := sol1.Edges()
	s1.Release()
	s1.Release() // idempotent

	s2 := NewSolver(g)
	defer s2.Release()
	sol2, err := s2.RecursiveGreedy(0, terms, 2)
	if err != nil {
		t.Fatal(err)
	}
	edges2 := sol2.Edges()
	if len(edges1) != len(edges2) {
		t.Fatalf("edge counts differ after recycle: %v vs %v", edges1, edges2)
	}
	for i := range edges1 {
		if edges1[i] != edges2[i] {
			t.Fatalf("solutions differ after recycle:\n%v\n%v", edges1, edges2)
		}
	}
}
