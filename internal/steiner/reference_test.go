package steiner

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// refGreedy is an unpruned reference for Solver.RecursiveGreedy, built
// only on graph primitives. Its forward and reverse sweeps are
// unbounded, it skips both pruning tiers, it sorts every candidate list
// by (d, xi), and it keeps the strictly smallest density while scanning
// vertices in ascending order. Paths follow forward ShortestPathsInto
// predecessors and take the cheapest parallel edge per hop, as the
// solver's do. They are merged into refSolution, the map-backed
// representation Solution once had, and pruned by its fixpoint loop. So
// a difference between the two is a different (vertex, prefix) choice,
// a bounded forward sweep that changed a path, or a flat Solution that
// merges or prunes differently.
type refGreedy struct {
	g, rev *graph.CSR
	sc     *graph.DijkstraScratch
	fwd    map[int]*sp
	bwd    map[int][]float64
	// misses counts covered terminals a level-2 winner's targeted
	// forward sweep would not reach (checkReach).
	misses int
}

func newRefGreedy(g *graph.CSR) *refGreedy {
	return &refGreedy{g: g, rev: g.Transpose(nil), sc: graph.GetScratch(),
		fwd: map[int]*sp{}, bwd: map[int][]float64{}}
}

func (r *refGreedy) from(u int) *sp {
	if c, ok := r.fwd[u]; ok {
		return c
	}
	c := &sp{dist: make([]float64, r.g.N()), prev: make([]int32, r.g.N())}
	r.g.ShortestPathsInto(u, c.dist, c.prev, r.sc)
	r.fwd[u] = c
	return c
}

// to returns the unbounded reverse labels d(·, x).
func (r *refGreedy) to(x int) []float64 {
	if d, ok := r.bwd[x]; ok {
		return d
	}
	d := make([]float64, r.g.N())
	r.rev.DistancesInto(x, graph.Inf, d, r.sc)
	r.bwd[x] = d
	return d
}

// edgeID identifies a directed edge by endpoints.
type edgeID struct{ U, V int }

// refSolution is Solution's retired representation: an edge map that
// keeps the cheaper weight of duplicates, sorted on every read.
type refSolution struct {
	root  int
	edges map[edgeID]float64
}

func newRefSolution(root int) refSolution {
	return refSolution{root: root, edges: map[edgeID]float64{}}
}

func (s refSolution) addEdge(u, v int, w float64) {
	id := edgeID{u, v}
	if old, ok := s.edges[id]; !ok || w < old {
		s.edges[id] = w
	}
}

func (s refSolution) merge(other refSolution) {
	for id, w := range other.edges {
		s.addEdge(id.U, id.V, w)
	}
}

// sortedEdges lists the edges as (u, v, w) in (u, v) order.
func (s refSolution) sortedEdges() [][3]float64 {
	var out [][3]float64
	for id, w := range s.edges {
		out = append(out, [3]float64{float64(id.U), float64(id.V), w})
	}
	slices.SortFunc(out, func(a, b [3]float64) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return out
}

// cost sums the weights in sortedEdges order.
func (s refSolution) cost() float64 {
	var c float64
	for _, e := range s.sortedEdges() {
		c += e[2]
	}
	return c
}

// pruned drops edges off every root→terminal path, pass after pass
// until one removes nothing.
func (s refSolution) pruned(terminals []int) refSolution {
	for {
		fwd := reachable(s.edges, []int{s.root}, func(id edgeID) (int, int) { return id.U, id.V })
		rev := reachable(s.edges, terminals, func(id edgeID) (int, int) { return id.V, id.U })
		next := newRefSolution(s.root)
		for id, w := range s.edges {
			if fwd[id.U] && rev[id.V] {
				next.edges[id] = w
			}
		}
		if len(next.edges) == len(s.edges) {
			return next
		}
		s = next
	}
}

// reachable returns the vertices reachable from seeds along the edges,
// each oriented by dir as (from, to).
func reachable(edges map[edgeID]float64, seeds []int, dir func(edgeID) (int, int)) map[int]bool {
	adj := map[int][]int{}
	for id := range edges {
		a, b := dir(id)
		adj[a] = append(adj[a], b)
	}
	seen := map[int]bool{}
	stack := slices.Clone(seeds)
	for _, x := range seeds {
		seen[x] = true
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, b := range adj[a] {
			if !seen[b] {
				seen[b] = true
				stack = append(stack, b)
			}
		}
	}
	return seen
}

func (r *refGreedy) addPath(sol refSolution, u, v int) {
	p, ok := graph.PathTo32Into(r.from(u).prev, u, v, nil)
	if !ok {
		return
	}
	for i := 0; i+1 < len(p); i++ {
		w := math.Inf(1)
		for ei := r.g.Off[p[i]]; ei < r.g.Off[p[i]+1]; ei++ {
			if int(r.g.To[ei]) == p[i+1] {
				w = math.Min(w, r.g.W[ei])
			}
		}
		sol.addEdge(p[i], p[i+1], w)
	}
}

func (r *refGreedy) solve(root int, terminals []int, level int) (refSolution, error) {
	for _, t := range terminals {
		if math.IsInf(r.from(root).dist[t], 1) {
			return refSolution{}, fmt.Errorf("terminal %d unreachable", t)
		}
	}
	rem := slices.Clone(terminals)
	sol := newRefSolution(root)
	for len(rem) > 0 {
		sub, cov, _ := r.rg(level, len(rem), root, rem)
		if len(cov) == 0 {
			return refSolution{}, errors.New("no progress")
		}
		sol.merge(sub)
		rem = without(rem, cov)
	}
	return sol.pruned(terminals), nil
}

func (r *refGreedy) rg(level, k, root int, X []int) (refSolution, []int, float64) {
	sol := newRefSolution(root)
	var covered []int
	var cost float64
	distR := r.from(root).dist
	if level <= 1 {
		cands := sortedCands(X, func(x int) float64 { return distR[x] })
		for _, c := range cands[:min(k, len(cands))] {
			r.addPath(sol, root, X[c.xi])
			covered = append(covered, X[c.xi])
			cost += c.d
		}
		return sol, covered, cost
	}
	rem := slices.Clone(X)
	for k > 0 && len(rem) > 0 {
		v, cov, c := r.scan(level, k, distR, rem)
		if v == -1 {
			break
		}
		if level == 2 {
			r.checkReach(v, cov)
		}
		r.addPath(sol, root, v)
		for _, x := range cov {
			r.addPath(sol, v, x)
		}
		cost += distR[v] + c
		covered = append(covered, cov...)
		rem = without(rem, cov)
		k -= len(cov)
	}
	return sol, covered, cost
}

// checkReach counts the terminals in cov whose forward label from the
// level-2 winner v lies beyond the solver's targeted sweep: the largest
// reverse label of cov, widened by revSlack. The slack argument of
// DESIGN.md §11 says there are none, so the solver's fallback to a
// full sweep never runs.
func (r *refGreedy) checkReach(v int, cov []int) {
	reach := 0.0
	for _, x := range cov {
		reach = max(reach, r.to(x)[v])
	}
	for _, x := range cov {
		if r.from(v).dist[x] > sweepLimit(reach) {
			r.misses++
		}
	}
}

// scan returns the vertex, coverage and cost of the strictly smallest
// density, scanning every vertex in ascending order.
func (r *refGreedy) scan(level, k int, distR []float64, rem []int) (int, []int, float64) {
	bestV, best := -1, math.Inf(1)
	var bestCov []int
	var bestCost float64
	for v := 0; v < r.g.N(); v++ {
		if math.IsInf(distR[v], 1) {
			continue
		}
		if level == 2 {
			cands := sortedCands(rem, func(x int) float64 { return r.to(x)[v] })
			prefix := 0.0
			for kp := 1; kp <= min(k, len(cands)); kp++ {
				prefix += cands[kp-1].d
				if dens := (distR[v] + prefix) / float64(kp); dens < best {
					bestV, best, bestCost, bestCov = v, dens, prefix, nil
					for _, c := range cands[:kp] {
						bestCov = append(bestCov, rem[c.xi])
					}
				}
			}
			continue
		}
		for kp := 1; kp <= k; kp++ {
			_, cov, c := r.rg(level-1, kp, v, rem)
			if len(cov) == 0 {
				continue
			}
			if dens := (distR[v] + c) / float64(len(cov)); dens < best {
				bestV, best, bestCov, bestCost = v, dens, cov, c
			}
		}
	}
	return bestV, bestCov, bestCost
}

// sortedCands lists the finite (xi, d(X[xi])) pairs in (d, xi) order.
func sortedCands(X []int, d func(x int) float64) []td {
	var cands []td
	for xi, x := range X {
		if dx := d(x); !math.IsInf(dx, 1) {
			cands = append(cands, td{xi, dx})
		}
	}
	slices.SortFunc(cands, func(a, b td) int {
		if c := cmp.Compare(a.d, b.d); c != 0 {
			return c
		}
		return a.xi - b.xi
	})
	return cands
}

// without returns xs minus every vertex in cov, keeping order.
func without(xs, cov []int) []int {
	var out []int
	for _, x := range xs {
		if !slices.Contains(cov, x) {
			out = append(out, x)
		}
	}
	return out
}

// weightFamilies are the edge-weight distributions of the reference
// comparison: continuous weights; small integers; a zero-heavy set that
// builds plateaus like the auxiliary graph's wait and coverage edges;
// and tenths, whose sums round.
var weightFamilies = []struct {
	name string
	w    func(*rand.Rand) float64
}{
	{"continuous", func(r *rand.Rand) float64 { return r.Float64() * 10 }},
	{"integers 0-3", func(r *rand.Rand) float64 { return float64(r.Intn(4)) }},
	{"plateaus", func(r *rand.Rand) float64 { return []float64{0, 0, 0, 0.3, 1.7, 3.1}[r.Intn(6)] }},
	{"tenths", func(r *rand.Rand) float64 { return float64(r.Intn(40)) / 10 }},
}

// referenceInstance builds a seeded digraph over n vertices whose
// backbone reaches every vertex from root 0, plus random extra edges,
// and k distinct terminals other than the root. One instance in eight
// also lists a terminal twice, and one in eight adds the root itself.
func referenceInstance(rng *rand.Rand, n, k int, w func(*rand.Rand) float64) (*graph.CSR, []int) {
	var el graph.EdgeList
	for v := 1; v < n; v++ {
		el.Add(int32(rng.Intn(v)), int32(v), w(rng))
	}
	for e := rng.Intn(4 * n); e > 0; e-- {
		el.Add(int32(rng.Intn(n)), int32(rng.Intn(n)), w(rng))
	}
	terms := rng.Perm(n - 1)[:k]
	for i := range terms {
		terms[i]++
	}
	switch rng.Intn(8) {
	case 0:
		terms = append(terms, terms[0])
	case 1:
		terms = append(terms, 0)
	}
	return csrOf(n, &el), terms
}

// sameEdges reports whether two edge lists match bit for bit.
func sameEdges(a, b [][3]float64) bool {
	return slices.EqualFunc(a, b, func(x, y [3]float64) bool {
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	})
}

// TestRecursiveGreedyMatchesUnprunedReference compares the solver with
// refGreedy on seeded instances in all four weight families: the same
// edges and the same Cost, bit for bit, at level 2 and, on graphs of at
// most 30 vertices with at most 5 terminals, level 3, each with one
// worker and with three. The solver's root-bounded reverse sweeps and
// pruned scan must pick exactly the (vertex, prefix) the full scan
// picks; its targeted forward sweeps must build the paths the full
// sweeps build, and reach every covered terminal without the fallback;
// and its flat Solution must merge and prune to the edge map's result.
func TestRecursiveGreedyMatchesUnprunedReference(t *testing.T) {
	const instances = 2000
	rng := rand.New(rand.NewSource(17))
	runs := 0
	for i := 0; i < instances; i++ {
		fam := weightFamilies[i%len(weightFamilies)]
		n := 2 + rng.Intn(59)
		g, terms := referenceInstance(rng, n, 1+rng.Intn(min(8, n-1)), fam.w)
		levels := []int{2}
		if n <= 30 && len(terms) <= 5 {
			levels = append(levels, 3)
		}
		ref := newRefGreedy(g)
		for _, level := range levels {
			want, wantErr := ref.solve(0, terms, level)
			for _, workers := range []int{1, 3} {
				s := NewSolver(g).SetWorkers(workers)
				got, err := s.RecursiveGreedy(0, terms, level)
				s.Release()
				runs++
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("instance %d (%s) level %d workers %d: error %v, reference %v", i, fam.name, level, workers, err, wantErr)
				}
				if err != nil {
					continue
				}
				if !sameEdges(got.Edges(), want.sortedEdges()) {
					t.Fatalf("instance %d (%s) level %d workers %d: edges\n%v\nreference\n%v", i, fam.name, level, workers, got.Edges(), want.sortedEdges())
				}
				if math.Float64bits(got.Cost()) != math.Float64bits(want.cost()) {
					t.Fatalf("instance %d (%s) level %d workers %d: cost %v, reference %v", i, fam.name, level, workers, got.Cost(), want.cost())
				}
			}
		}
		if ref.misses != 0 {
			t.Fatalf("instance %d (%s): %d covered terminals beyond a winner's targeted forward sweep", i, fam.name, ref.misses)
		}
		graph.PutScratch(ref.sc)
	}
	t.Logf("%d runs on %d instances", runs, instances)
}

// TestTier2BoundAllowsForRounding solves an instance on which tier 2,
// undeflated, skipped the winner. Root 1 reaches vertex 0 at cost 0;
// vertex 0 reaches terminal 2 at d, and the root reaches terminals 2, 3
// and 4 at d each. The bounded reverse sweeps cut off vertex 0's labels
// to 3 and 4 (1 > d), so vertex 0 covers terminal 2 alone at density d.
// The root covers all three at (d+d+d)/3, which rounds to
// 0.17222940924298472, below d; but its tier-2 bound 0/3 + d is d
// itself, which the unmargined bound took as proof that it cannot win.
func TestTier2BoundAllowsForRounding(t *testing.T) {
	d := 0.17222940924298474
	if (d+d+d)/3 >= d {
		t.Fatalf("(d+d+d)/3 = %v does not round below d = %v", (d+d+d)/3, d)
	}
	var el graph.EdgeList
	el.Add(1, 0, 0)
	el.Add(0, 2, d)
	el.Add(0, 3, 1)
	el.Add(0, 4, 1)
	el.Add(1, 2, d)
	el.Add(1, 3, d)
	el.Add(1, 4, d)
	g := csrOf(5, &el)
	terms := []int{2, 3, 4}
	want := [][3]float64{{1, 2, d}, {1, 3, d}, {1, 4, d}}
	ref := newRefGreedy(g)
	defer graph.PutScratch(ref.sc)
	refSol, err := ref.solve(1, terms, 2)
	if err != nil || !sameEdges(refSol.sortedEdges(), want) {
		t.Fatalf("reference: edges %v (error %v), want %v", refSol.sortedEdges(), err, want)
	}
	for _, workers := range []int{1, 3} {
		s := NewSolver(g).SetWorkers(workers)
		sol, err := s.RecursiveGreedy(1, terms, 2)
		s.Release()
		if err != nil || !sameEdges(sol.Edges(), want) {
			t.Fatalf("workers %d: edges %v (error %v), want the reference's %v", workers, sol.Edges(), err, want)
		}
	}
}

// minDensity is the smallest density (dR + prefix)/kp over the prefixes
// of at most k sorted candidates, summed in the scan's order; +Inf
// without candidates.
func minDensity(k int, dR float64, cands []td) float64 {
	m, prefix := math.Inf(1), 0.0
	for kp := 1; kp <= min(k, len(cands)); kp++ {
		prefix += cands[kp-1].d
		m = math.Min(m, (dR+prefix)/float64(kp))
	}
	return m
}

// TestLevel2FloorsBoundEveryRound checks the invariant that makes the
// floor skip exact: after every level-2 scan, each reachable vertex's
// floor is at most the minimum density an unpruned evaluation of that
// round computes for it from the same root-bounded labels. It runs on
// seeded instances of the reference test's weight families, at levels 2
// and 3, with one worker and with three. Level 3 opens a level-2 rg call
// per (vertex, budget), each with its own root and k, so a floor that
// leaked from one call into the next shows here, as does a floor
// recorded above a vertex's minimum density.
func TestLevel2FloorsBoundEveryRound(t *testing.T) {
	const instances = 400
	rng := rand.New(rand.NewSource(29))
	var checked, tight int
	for i := 0; i < instances; i++ {
		fam := weightFamilies[i%len(weightFamilies)]
		n := 2 + rng.Intn(23)
		g, terms := referenceInstance(rng, n, 1+rng.Intn(min(5, n-1)), fam.w)
		for _, level := range []int{2, 3} {
			for _, workers := range []int{1, 3} {
				s := NewSolver(g).SetWorkers(workers)
				s.afterScan = func(k int, distR []float64, rem []int) {
					for v, f := range s.floor {
						if math.IsInf(distR[v], 1) {
							continue
						}
						dens := minDensity(k, distR[v], sortedCands(rem, func(x int) float64 { return s.bwd[x].dist[v] }))
						if f > dens {
							t.Fatalf("instance %d (%s) level %d workers %d: vertex %d has floor %v above its density %v (k %d, remaining %v)",
								i, fam.name, level, workers, v, f, dens, k, rem)
						}
						checked++
						if f == dens && !math.IsInf(dens, 1) {
							tight++
						}
					}
				}
				_, err := s.RecursiveGreedy(0, terms, level)
				s.Release()
				if err != nil {
					t.Fatalf("instance %d (%s) level %d workers %d: %v", i, fam.name, level, workers, err)
				}
			}
		}
	}
	if tight == 0 {
		t.Fatalf("no floor of %d equals its density: the check cannot see a floor set too high", checked)
	}
	t.Logf("%d floors checked, %d equal to their density", checked, tight)
}

// TestDistToAllSweepsAgainForALargerLimit is the white-box test of the
// bwd cache rule. On the chain 0→1→2→3 (weight 1 each) with terminal 3,
// a scan from root 2 needs d(·, 3) only up to 1, so its sweep cuts off
// vertices 0 and 1. A later scan from root 0 needs labels up to 3: it
// must sweep again rather than read the short entry, and then see the
// labels the first sweep cut off. Every vertex ties at density 3 from
// root 0, so the first, vertex 0, wins; reading the short entry would
// pick vertex 2 instead. Each scan stands for a round of its own rg
// call, so it starts from cleared floors.
func TestDistToAllSweepsAgainForALargerLimit(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	el.Add(1, 2, 1)
	el.Add(2, 3, 1)
	rec := obs.New()
	s := NewSolver(csrOf(4, &el)).SetObs(rec)
	defer s.Release()
	sweeps := func() int64 { return rec.Counter("steiner.dijkstra.bwd").Value() }
	rem := []int{3}
	scanFrom := func(root int) (int, []int, float64, float64) {
		s.clearFloors()
		return s.scanLevel2(1, s.from(root, graph.Inf).dist, rem)
	}

	if v, cov, _, _ := scanFrom(2); v != 2 || !slices.Equal(cov, rem) {
		t.Fatalf("scan from root 2 chose vertex %d covering %v, want 2 covering %v", v, cov, rem)
	}
	if d := s.bwd[3].dist; !math.IsInf(d[1], 1) || !math.IsInf(d[0], 1) {
		t.Fatalf("sweep bounded at root 2's distance kept d(1,3) = %v, d(0,3) = %v; want both cut off", d[1], d[0])
	}
	if v, cov, cost, _ := scanFrom(0); v != 0 || !slices.Equal(cov, rem) || math.Float64bits(cost) != math.Float64bits(3) {
		t.Fatalf("scan from root 0 chose vertex %d covering %v at cost %v, want vertex 0 covering %v at cost 3", v, cov, cost, rem)
	}
	if got := sweeps(); got != 2 {
		t.Fatalf("%d reverse sweeps after the farther root, want 2 (one sweep again)", got)
	}
	// The longer entry serves the nearer root again without a sweep.
	if v, _, _, _ := scanFrom(2); v != 2 || sweeps() != 2 {
		t.Fatalf("repeat scan from root 2: vertex %d after %d sweeps, want vertex 2 after 2", v, sweeps())
	}
}

// TestWinnerSweepsAgainForALargerReach is the forward twin of
// TestDistToAllSweepsAgainForALargerLimit. Root 1 reaches hub 0 at
// cost 10, and the hub reaches terminals 2, 3 and 4 at costs 1, 2 and
// 30. The first round's winner is the hub covering 2 and 3 (density
// 6.5), so its forward sweep stops at reach 2 and cuts off 4. In the
// second round the hub and the root tie at density 40 for terminal 4,
// and the hub wins as the lower vertex id: its cached sweep is too
// short, so it must sweep again, and the path 0→4 must come from the
// longer sweep.
func TestWinnerSweepsAgainForALargerReach(t *testing.T) {
	var el graph.EdgeList
	el.Add(1, 0, 10)
	el.Add(0, 2, 1)
	el.Add(0, 3, 2)
	el.Add(0, 4, 30)
	g := csrOf(5, &el)
	rec := obs.New()
	s := NewSolver(g).SetObs(rec)
	defer s.Release()
	sol, err := s.RecursiveGreedy(1, []int{2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]float64{{0, 2, 1}, {0, 3, 2}, {0, 4, 30}, {1, 0, 10}}
	if !sameEdges(sol.Edges(), want) {
		t.Fatalf("edges %v, want %v", sol.Edges(), want)
	}
	// The root's full sweep settles 5 labels, the hub's first sweep 3
	// (0, 2, 3) and its second 4.
	if sweeps, settled := rec.Counter("steiner.dijkstra.fwd").Value(), rec.Counter("steiner.dijkstra.fwd_settled").Value(); sweeps != 3 || settled != 12 {
		t.Fatalf("%d forward sweeps settling %d labels, want 3 settling 12 (the hub swept twice)", sweeps, settled)
	}
	if hub := s.fwd[0]; math.Float64bits(hub.limit) != math.Float64bits(sweepLimit(30)) || hub.dist[4] != 30 {
		t.Fatalf("hub's cached sweep reaches %v with d(0,4) = %v, want %v and 30", hub.limit, hub.dist[4], sweepLimit(30))
	}
}

// TestMaterializeSweepsAgainOnAMiss drives materialize's fallback: on
// the chain 0→1→2→3 (weight 1 each), a forward sweep of 0 bounded at 1
// cuts off terminal 3. Rather than drop the path, materialize must
// sweep 0 again in full and add all three edges.
func TestMaterializeSweepsAgainOnAMiss(t *testing.T) {
	var el graph.EdgeList
	el.Add(0, 1, 1)
	el.Add(1, 2, 1)
	el.Add(2, 3, 1)
	rec := obs.New()
	s := NewSolver(csrOf(4, &el)).SetObs(rec)
	defer s.Release()
	sol := newSolution(0)
	s.materialize(&sol, 0, []int{3}, 1)
	sol.prune([]int{3})
	if want := [][3]float64{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}}; !sameEdges(sol.Edges(), want) {
		t.Fatalf("edges %v, want %v", sol.Edges(), want)
	}
	if got := rec.Counter("steiner.dijkstra.fwd").Value(); got != 2 {
		t.Fatalf("%d forward sweeps, want 2 (the bounded one, then a full one)", got)
	}
	if !math.IsInf(s.fwd[0].limit, 1) {
		t.Fatalf("cached sweep of 0 reaches %v after the fallback, want Inf", s.fwd[0].limit)
	}
}

// TestCostIsOrderIndependent pins Cost to the sum in Edges order: with
// weights in tenths, a sum in any other order can round differently.
func TestCostIsOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tenths := weightFamilies[3].w
	for trial := 0; trial < 20; trial++ {
		g, terms := referenceInstance(rng, 60, 8, tenths)
		s := NewSolver(g)
		sol, err := s.RecursiveGreedy(0, terms, 2)
		s.Release()
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for _, e := range sol.Edges() {
			want += e[2]
		}
		for call := 0; call < 50; call++ {
			if got := sol.Cost(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d call %d: Cost = %v (%#x), want the ordered sum %v (%#x)",
					trial, call, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
