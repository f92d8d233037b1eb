// Package steiner approximates the directed Steiner tree problem: given
// a weighted digraph, a root, and a terminal set, find a cheap subgraph
// in which every terminal is reachable from the root.
//
// This is the algorithmic core Liang's minimum-energy multicast tree
// algorithm [3] reduces to, and therefore the engine behind EEDCB
// (§VI-A): the auxiliary graph of a TMEDB instance is handed to this
// package. Two algorithms are provided:
//
//   - ShortestPathTree — the union of shortest paths root→terminal, a
//     fast heuristic with ratio at most the number of terminals.
//   - RecursiveGreedy — the Charikar et al. level-ℓ recursive greedy with
//     approximation ratio O(ℓ·k^{1/ℓ}) for k terminals, matching the
//     O(N^ε) guarantee family the paper cites.
//
// The solver operates on the flat CSR representation with the monotone
// bucket-queue Dijkstra (see internal/graph): distances are computed
// lazily into arena-recycled buffers. Each recursion root gets one full
// forward sweep, and each level-2 winner one forward sweep stopped at
// the farthest terminal it covers; their predecessors materialize
// paths. Each terminal gets one distance-only reverse-graph sweep,
// stopped at the scan root's own distance to it. The level-2 density
// scan prunes dominated candidate vertices with admissible lower
// bounds, among them a per-vertex floor carried across the rounds of
// one greedy call, before paying for their candidate sort. Levels >= 3
// need forward distances from arbitrary vertices and are therefore
// restricted to small graphs.
package steiner

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// maxLevel3Vertices bounds the graph size accepted by levels >= 3, whose
// per-vertex forward Dijkstra caching is quadratic in the worst case.
const maxLevel3Vertices = 4000

// solEdge is one directed solution edge u→v of weight w.
type solEdge struct {
	u, v int32
	w    float64
}

// Solution is a subgraph (a union of root-to-terminal paths) solving a
// Steiner instance. Its edges are a flat slice: construction appends,
// and prune canonicalizes once, sorting by (u, v) and keeping one edge
// per pair. Every solution the solver returns is pruned, so the
// exported methods read the canonical form.
type Solution struct {
	Root  int
	edges []solEdge
}

func newSolution(root int) Solution { return Solution{Root: root} }

// Cost returns the total weight of the distinct edges in the solution,
// summed in Edges order so that every call rounds the same way.
func (s Solution) Cost() float64 {
	var c float64
	for _, e := range s.edges {
		c += e.w
	}
	return c
}

// NumEdges returns the number of distinct edges.
func (s Solution) NumEdges() int { return len(s.edges) }

// Edges returns the solution edges as (u, v, w) triples, in ascending
// (u, v) order.
func (s Solution) Edges() [][3]float64 {
	out := make([][3]float64, len(s.edges))
	for i, e := range s.edges {
		out[i] = [3]float64{float64(e.u), float64(e.v), e.w}
	}
	return out
}

// addEdge appends an edge; prune keeps the cheapest of duplicates.
func (s *Solution) addEdge(u, v int, w float64) {
	s.edges = append(s.edges, solEdge{int32(u), int32(v), w})
}

// merge appends other's edges to s.
func (s *Solution) merge(other Solution) {
	s.edges = append(s.edges, other.edges...)
}

// canonicalize sorts the edges by (u, v) and keeps one edge per pair,
// of the pair's smallest weight. Every copy of a pair carries
// minEdge(u, v), bit for bit, so which copy survives is unobservable
// and the sort need not be stable.
func (s *Solution) canonicalize() {
	slices.SortFunc(s.edges, func(a, b solEdge) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	out := s.edges[:0]
	for _, e := range s.edges {
		if n := len(out); n > 0 && out[n-1].u == e.u && out[n-1].v == e.v {
			if e.w < out[n-1].w {
				out[n-1].w = e.w
			}
			continue
		}
		out = append(out, e)
	}
	s.edges = out
}

// prune canonicalizes the solution and restricts it to its useful
// edges: those whose tail is reachable from the root and whose head
// reaches a terminal, both through solution edges. Union-of-paths
// constructions can leave dead branches behind — e.g. a power vertex
// adopted for several terminals of which later greedy rounds re-covered
// some more cheaply — and pruning removes their cost without affecting
// coverage. One pass suffices: an edge that survives has a witnessing
// root→tail path and head→terminal path, and every edge on them passes
// the same test, so removing the rest strands no survivor.
func (s *Solution) prune(terminals []int) {
	s.canonicalize()
	edges := s.edges
	// keep[i] collects edge i's two tests: bit 1 for a root-reachable
	// tail, bit 2 for a head that reaches a terminal.
	keep := make([]uint8, len(edges))
	// Forward: edges are sorted by tail, so u's out-edges are one run;
	// marking the run marks u expanded.
	stack := []int32{int32(s.Root)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, found := slices.BinarySearchFunc(edges, u, func(e solEdge, u int32) int { return cmp.Compare(e.u, u) })
		if !found || keep[lo]&1 != 0 {
			continue
		}
		for i := lo; i < len(edges) && edges[i].u == u; i++ {
			keep[i] |= 1
			stack = append(stack, edges[i].v)
		}
	}
	// Reverse: the same walk over the edges ordered by head.
	byHead := make([]int32, len(edges))
	for i := range byHead {
		byHead[i] = int32(i)
	}
	slices.SortFunc(byHead, func(a, b int32) int { return cmp.Compare(edges[a].v, edges[b].v) })
	for _, t := range terminals {
		stack = append(stack, int32(t))
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		lo, found := slices.BinarySearchFunc(byHead, v, func(i, v int32) int { return cmp.Compare(edges[i].v, v) })
		if !found || keep[byHead[lo]]&2 != 0 {
			continue
		}
		for j := lo; j < len(byHead) && edges[byHead[j]].v == v; j++ {
			keep[byHead[j]] |= 2
			stack = append(stack, edges[byHead[j]].u)
		}
	}
	out := edges[:0]
	for i, e := range edges {
		if keep[i] == 3 {
			out = append(out, e)
		}
	}
	s.edges = out
}

// sp caches one forward Dijkstra run: dist and prev are arena-owned
// and hold every label up to limit, and its predecessor; labels above
// it read Inf. Release recycles them, after which the sp must not be
// read.
type sp struct {
	dist  []float64
	prev  []int32
	limit float64
}

// revSlack widens a sweep's limit past a label read from a sweep in
// the other direction: a reverse sweep's past the scan root's forward
// distance distR[x], a level-2 winner's forward sweep past its reverse
// label to the farthest terminal it covers. The forward and reverse
// labels sum one path in opposite orders, so they can differ by
// rounding; 1e-9 covers the error of paths of over a million edges.
const revSlack = 1e-9

// sweepLimit is how far a sweep must reach to cover a label d read from
// a sweep in the other direction.
func sweepLimit(d float64) float64 { return d * (1 + revSlack) }

// bwdSweep caches one reverse Dijkstra run to a terminal: dist is
// arena-owned and holds every label up to limit; labels above it read
// Inf.
type bwdSweep struct {
	dist  []float64
	limit float64
}

// Solver answers Steiner queries on one CSR digraph with lazily cached
// shortest-path computations. Acquire with NewSolver, hand back the
// arena-owned caches with Release when done.
type Solver struct {
	g   *graph.CSR
	rev *graph.CSR // lazily built transpose; see revGraph / WithReverse
	// fwd holds the forward sweep per source, as far as the request that
	// swept it asked for (from).
	fwd map[int]*sp
	// bwd holds the reverse-graph distances per terminal (distances TO
	// it). Nothing reads a path to a terminal, so these sweeps run
	// distance-only (graph.CSR.DistancesInto), and only as far as the
	// scan that asked for them can use (distToAll).
	bwd map[int]bwdSweep
	// arena recycles the dist/prev buffers across solver instances; the
	// serial scratch holds the bucket queue between runs. Parallel
	// workers take their own scratch from the package pool.
	arena   *graph.Arena
	scratch *graph.DijkstraScratch
	// workers bounds the pool used by the level-2 candidate scan and the
	// reverse-Dijkstra prefill. The scan merges per-chunk winners in
	// ascending vertex order, so solutions are byte-identical for every
	// value; <= 1 runs the original serial code.
	workers int
	// obs records Dijkstra/scan counters and pool utilization. Recording
	// is write-only — solutions are identical with or without it. Nil
	// records nothing.
	obs *obs.Recorder
	// cancel is the cancellation checkpoint token, polled once per greedy
	// round, per density scan, and through the reverse-Dijkstra pool. Nil
	// is the zero-overhead uncancellable path; a completed solve is
	// byte-identical for every value.
	cancel *cancel.Token
	// tripped latches the first checkpoint error so the recursive scan
	// helpers can unwind through their value-only signatures; the public
	// entry points surface it as the returned error.
	tripped  error
	released bool

	// Reusable scan buffers (hot-path allocation contract, DESIGN.md
	// §15): grown once to high-water capacity, then reused by every
	// greedy round so the steady-state density scan allocates nothing.
	// The per-chunk slots (cands, covBuf) are touched only by their
	// owning chunk during a parallel scan; everything else is filled
	// serially before a fan-out or read after it joins.
	dTo       [][]float64  // distToAll result, aliased into bwd cache entries
	missing   []int        // distToAll cache-miss indices
	locals    []level2Best // per-chunk scan winners
	cands     [][]td       // per-chunk candidate (terminal, distance) pairs
	covBuf    [][]int      // per-chunk winning-coverage accumulators
	baseCands []td         // rgBase candidate pairs (serial only)
	rmBits    []bool       // subtract scratch bit-set, kept all-clear between calls
	pathBuf   []int        // addPath reconstruction buffer
	// floor holds, per vertex, a lower bound on the density the level-2
	// scan computes for it in every later round of the current level-2
	// rg call (scanLevel2Range); clearFloors starts each call at 0. A
	// parallel chunk reads and writes only its own vertices.
	floor []float64

	// afterScan, when set, runs after every level-2 scan with the
	// scan's inputs (the floor invariant test reads floor there).
	afterScan func(k int, distR []float64, rem []int)
}

// check polls the cancellation token, latching the first error. It
// reports false once the solve is cancelled.
func (s *Solver) check() bool {
	if s.tripped != nil {
		return false
	}
	if err := s.cancel.Check(); err != nil {
		s.tripped = err
		return false
	}
	return true
}

// NewSolver builds a solver for g. The reverse graph is computed lazily
// on the first terminal-distance query; callers holding a memoized
// transpose (the auxiliary-graph core) inject it with WithReverse.
func NewSolver(g *graph.CSR) *Solver {
	return &Solver{
		g:       g,
		fwd:     make(map[int]*sp),
		bwd:     make(map[int]bwdSweep),
		arena:   graph.GetArena(),
		scratch: graph.GetScratch(),
		workers: 1,
	}
}

// WithReverse injects a precomputed transpose of g (it must equal
// g.Transpose(nil); the memoized auxiliary-graph core caches one) and
// returns the solver for chaining.
func (s *Solver) WithReverse(rev *graph.CSR) *Solver {
	s.rev = rev
	return s
}

// Release returns the solver's cached Dijkstra buffers, scratch, and
// arena to the package pools and flushes the queue-operation counters to
// the recorder. The solver (and any distance data obtained from it) must
// not be used afterwards. Idempotent.
func (s *Solver) Release() {
	if s == nil || s.released {
		return
	}
	s.released = true
	for _, c := range s.fwd {
		s.arena.PutF64(c.dist)
		s.arena.PutI32(c.prev)
	}
	for _, b := range s.bwd {
		s.arena.PutF64(b.dist)
	}
	s.fwd, s.bwd = nil, nil
	st := s.arena.Stats()
	s.obs.Counter("graph.arena.reuses").Add(st.Reuses)
	s.obs.Counter("graph.arena.allocs").Add(st.Allocs)
	flushScratch(s.obs, s.scratch)
	graph.PutScratch(s.scratch)
	s.scratch = nil
	graph.PutArena(s.arena)
	s.arena = nil
}

// flushScratch adds a scratch's queue counters to the conventional
// bucket-queue counters and zeroes them.
func flushScratch(r *obs.Recorder, sc *graph.DijkstraScratch) {
	if sc == nil {
		return
	}
	r.Counter("graph.bucketq.pushes").Add(sc.Pushes)
	r.Counter("graph.bucketq.pops").Add(sc.Pops)
	r.Counter("graph.bucketq.stale").Add(sc.Stale)
	r.Counter("graph.bucketq.scanned").Add(sc.Scanned)
	sc.Pushes, sc.Pops, sc.Stale, sc.Scanned = 0, 0, 0, 0
}

// SetWorkers bounds the solver's internal worker pool (<= 1 serial) and
// returns the solver for chaining. Any value yields identical solutions.
func (s *Solver) SetWorkers(workers int) *Solver {
	s.workers = workers
	return s
}

// SetObs attaches a metrics recorder (nil disables recording) and
// returns the solver for chaining.
func (s *Solver) SetObs(r *obs.Recorder) *Solver {
	s.obs = r
	return s
}

// SetCancel attaches a cancellation token (nil disables checkpoints)
// and returns the solver for chaining.
func (s *Solver) SetCancel(tok *cancel.Token) *Solver {
	s.cancel = tok
	return s
}

// revGraph returns the transpose, building it on first use.
func (s *Solver) revGraph() *graph.CSR {
	if s.rev == nil {
		s.rev = s.g.Transpose(s.arena)
	}
	return s.rev
}

// from returns the forward sweep from u, exact up to at least limit
// (graph.Inf for the whole graph). A cached sweep serves any request
// whose limit is no larger than its own; a larger one sweeps u again
// into the same buffers. Labels up to the old limit, and their
// predecessors, come back bitwise unchanged, so a reader of the old
// entry sees the same values. Sweeps are not resumed: a dropped
// relaxation cannot be replayed.
func (s *Solver) from(u int, limit float64) *sp {
	c, ok := s.fwd[u]
	if ok && c.limit >= limit {
		return c
	}
	s.obs.Counter("steiner.dijkstra.fwd").Inc()
	if !ok {
		n := s.g.N()
		//tmedbvet:ignore hotalloc fwd cache fill: one pair of arena-backed headers per distinct source, amortized across every later query
		c = &sp{dist: s.arena.F64(n), prev: s.arena.I32(n)}
		s.fwd[u] = c
	}
	c.limit = limit
	pops := s.scratch.Pops
	s.g.ShortestPathsWithin(u, limit, c.dist, c.prev, s.scratch)
	s.obs.Counter("steiner.dijkstra.fwd_settled").Add(s.scratch.Pops - pops)
	return c
}

// distToAll returns dTo[xi] = dist(·, rem[xi]) for every terminal, as
// far as a density scan from a root with forward distances distR can
// use: every label up to sweepLimit(distR[x]) is exact, and larger ones
// may read Inf, which cannot change the scan's winner (DESIGN.md §11,
// "Root-bounded reverse sweeps").
//
// A cached sweep serves any scan whose limit is no larger than its
// own; a scan from a farther root (levels >= 3) sweeps the terminal
// again. The sweeps run across the worker pool. Entries are registered
// serially before the fan-out, so a terminal listed twice sweeps once;
// workers only read the immutable reverse graph and fill their own
// entry's buffer with a pool-local scratch, so the arena is never
// touched concurrently.
func (s *Solver) distToAll(distR []float64, rem []int) [][]float64 {
	if cap(s.dTo) < len(rem) {
		s.dTo = make([][]float64, len(rem))
		s.missing = make([]int, 0, len(rem))
	}
	dTo := s.dTo[:len(rem)]
	missing := s.missing[:0] // indices into rem to sweep
	for xi, x := range rem {
		limit := sweepLimit(distR[x])
		b, ok := s.bwd[x]
		if !ok {
			b.dist = s.arena.F64(s.g.N())
		}
		dTo[xi] = b.dist
		if ok && b.limit >= limit {
			continue
		}
		b.limit = limit
		s.bwd[x] = b
		missing = append(missing, xi)
	}
	if len(missing) == 0 {
		return dTo
	}
	rev := s.revGraph()
	s.obs.Counter("steiner.dijkstra.bwd").Add(int64(len(missing)))
	settled := s.obs.Counter("steiner.dijkstra.bwd_settled")
	//tmedbvet:ignore hotalloc one capturing closure per pool fan-out, not per work item; the fan-out itself costs goroutine spawns
	err := parallel.ForEach(s.obs.Pool("steiner.dijkstra"), s.cancel, s.workers, len(missing), func(mi int) {
		xi := missing[mi]
		sc := graph.GetScratch()
		rev.DistancesInto(rem[xi], sweepLimit(distR[rem[xi]]), dTo[xi], sc)
		settled.Add(sc.Pops)
		flushScratch(s.obs, sc)
		graph.PutScratch(sc)
	})
	if err != nil {
		// Drop the entries the fan-out may have left unfilled.
		for _, xi := range missing {
			s.arena.PutF64(dTo[xi])
			delete(s.bwd, rem[xi])
		}
		if s.tripped == nil {
			s.tripped = err
		}
		return nil
	}
	return dTo
}

// Dist returns the shortest-path distance u→v.
func (s *Solver) Dist(u, v int) float64 { return s.from(u, graph.Inf).dist[v] }

// addPath adds the shortest path u→v to sol, read from a forward sweep
// from u exact up to limit. It returns false when v is unreachable from
// u or lies beyond limit.
func (s *Solver) addPath(sol *Solution, u, v int, limit float64) bool {
	c := s.from(u, limit)
	p, ok := graph.PathTo32Into(c.prev, u, v, s.pathBuf)
	s.pathBuf = p // keep the grown buffer for the next reconstruction
	if !ok {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		sol.addEdge(p[i], p[i+1], s.minEdge(p[i], p[i+1]))
	}
	return true
}

func (s *Solver) minEdge(u, v int) float64 {
	best := math.Inf(1)
	g := s.g
	for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
		if int(g.To[ei]) == v && g.W[ei] < best {
			best = g.W[ei]
		}
	}
	return best
}

// ShortestPathTree returns the union of shortest paths from root to each
// terminal. It errors when a terminal is unreachable.
func (s *Solver) ShortestPathTree(root int, terminals []int) (Solution, error) {
	sol := newSolution(root)
	for _, t := range terminals {
		if !s.check() {
			return Solution{}, fmt.Errorf("steiner: %w", s.tripped)
		}
		if !s.addPath(&sol, root, t, graph.Inf) {
			return Solution{}, fmt.Errorf("steiner: terminal %d unreachable from %d", t, root)
		}
	}
	sol.prune(terminals)
	return sol, nil
}

// RecursiveGreedy runs the Charikar et al. level-ℓ recursive greedy
// covering all terminals. level must be >= 1; level 1 degenerates to the
// shortest-path union, level 2 and above trade running time for the
// O(ℓ·k^{1/ℓ}) density guarantee.
func (s *Solver) RecursiveGreedy(root int, terminals []int, level int) (Solution, error) {
	if level < 1 {
		return Solution{}, fmt.Errorf("steiner: level %d < 1", level)
	}
	if level >= 3 && s.g.N() > maxLevel3Vertices {
		return Solution{}, fmt.Errorf("steiner: level %d needs quadratic distance caching; graph has %d > %d vertices",
			level, s.g.N(), maxLevel3Vertices)
	}
	rootDist := s.from(root, graph.Inf).dist
	for _, t := range terminals {
		if math.IsInf(rootDist[t], 1) {
			return Solution{}, fmt.Errorf("steiner: terminal %d unreachable from %d", t, root)
		}
	}
	remaining := append([]int(nil), terminals...)
	sol := newSolution(root)
	for len(remaining) > 0 {
		sub, covered, _ := s.rg(level, len(remaining), root, remaining)
		if s.tripped != nil {
			return Solution{}, fmt.Errorf("steiner: %w", s.tripped)
		}
		if len(covered) == 0 {
			return Solution{}, fmt.Errorf("steiner: no progress covering %v", remaining)
		}
		sol.merge(sub)
		remaining = s.subtract(remaining, covered)
	}
	sol.prune(terminals)
	return sol, nil
}

// rg is the recursive density-greedy A_level(k, r, X): it returns a
// partial solution rooted at r covering up to k terminals of X, the
// covered terminals, and the density-estimate cost.
//
//tmedbvet:hotpath
func (s *Solver) rg(level, k, r int, X []int) (Solution, []int, float64) {
	if level <= 1 {
		return s.rgBase(k, r, X)
	}
	sol := newSolution(r)
	var covered []int
	var cost float64
	//tmedbvet:ignore hotalloc recursion works on a disjoint copy: sibling rg calls at the same level must not share the shrinking terminal list
	rem := append([]int(nil), X...)
	distR := s.from(r, graph.Inf).dist
	if level == 2 {
		s.clearFloors()
	}
	for k > 0 && len(rem) > 0 {
		if !s.check() {
			break
		}
		var bestV int
		var bestCov []int
		var bestCost float64
		// A level >= 3 winner was swept in full as a recursion root.
		reach := graph.Inf
		if level == 2 {
			bestV, bestCov, bestCost, reach = s.scanLevel2(k, distR, rem)
		} else {
			bestV, bestCov, bestCost = s.scanRecursive(level, k, distR, rem)
		}
		if bestV == -1 {
			break
		}
		// materialize: path r→bestV plus paths bestV→covered terminals
		s.addPath(&sol, r, bestV, graph.Inf)
		s.materialize(&sol, bestV, bestCov, sweepLimit(reach))
		cost += distR[bestV] + bestCost
		//tmedbvet:ignore hotalloc per-call result accumulation: the coverage escapes to the recursive caller, which holds it across later rounds
		covered = append(covered, bestCov...)
		rem = s.subtract(rem, bestCov)
		k -= len(bestCov)
	}
	return sol, covered, cost
}

// materialize adds the paths from v to each covered terminal, read from
// a forward sweep of v bounded at limit. The level-2 bound is v's
// largest reverse label in the winning prefix, widened by revSlack, so
// the sweep reaches every covered terminal (DESIGN.md §11, "Targeted
// forward sweeps"). Should it still miss one, v sweeps again in full:
// a dropped path would leave its terminal uncovered.
func (s *Solver) materialize(sol *Solution, v int, cov []int, limit float64) {
	for _, x := range cov {
		if !s.addPath(sol, v, x, limit) {
			limit = graph.Inf
			s.addPath(sol, v, x, limit)
		}
	}
}

// clearFloors starts the density floors of one level-2 rg call at 0,
// which bounds every density: labels and distR are non-negative. Floors
// never carry over to another call, whose root, labels or k may differ.
func (s *Solver) clearFloors() {
	n := s.g.N()
	if cap(s.floor) < n {
		s.floor = make([]float64, n)
	}
	s.floor = s.floor[:n]
	clear(s.floor)
}

// scanLevel2 finds the vertex v and prefix size k' minimizing the A_1
// density (d(r,v) + Σ_{k' nearest} d(v,x)) / k', using reverse-graph
// distances to the remaining terminals. Besides the winner, its
// coverage and cost it returns its reach, the largest reverse label in
// the winning prefix. It returns (-1, nil, 0, 0) when no vertex can
// reach any terminal.
//
// The vertex scan is embarrassingly parallel: the space is split into
// contiguous chunks, each chunk runs the serial scan code, and the
// per-chunk winners merge in ascending chunk order with a strictly-less
// density comparison — exactly reproducing the serial "first vertex
// achieving the global minimum wins" tie-break for every worker count.
// It reads and raises the current rg call's floors (clearFloors).
func (s *Solver) scanLevel2(k int, distR []float64, rem []int) (int, []int, float64, float64) {
	s.obs.Counter("steiner.level2.scans").Inc()
	s.obs.Counter("steiner.level2.vertices_scanned").Add(int64(s.g.N()))
	dTo := s.distToAll(distR, rem) // dTo[xi][v] = dist(v, rem[xi]), root-bounded
	if dTo == nil {
		return -1, nil, 0, 0 // cancellation latched in distToAll
	}
	ranges := parallel.ChunkRanges(s.workers, s.g.N())
	if cap(s.cands) < len(ranges) {
		s.cands = make([][]td, len(ranges))
		s.covBuf = make([][]int, len(ranges))
		s.locals = make([]level2Best, len(ranges))
	}
	var best level2Best
	if len(ranges) == 1 {
		best = s.scanLevel2Range(k, distR, rem, dTo, 0, ranges[0])
	} else {
		locals := s.locals[:len(ranges)]
		//tmedbvet:ignore hotalloc one capturing closure per pool fan-out, not per work item; the fan-out itself costs goroutine spawns
		_ = parallel.ForEach(s.obs.Pool("steiner.scan"), nil, s.workers, len(ranges), func(c int) {
			locals[c] = s.scanLevel2Range(k, distR, rem, dTo, c, ranges[c])
		}) // nil token: never fails
		best = level2Best{v: -1, density: math.Inf(1)}
		for _, l := range locals {
			if l.v != -1 && l.density < best.density {
				best = l
			}
		}
	}
	if s.afterScan != nil {
		s.afterScan(k, distR, rem)
	}
	return best.v, best.cov, best.cost, best.reach
}

// level2Best is one (local) winner of the level-2 density scan; reach
// is the largest label of its prefix.
type level2Best struct {
	v       int
	cov     []int
	cost    float64
	density float64
	reach   float64
}

// td is one candidate (terminal index, distance) pair of the density
// scan; candidates order canonically by (d, xi).
type td struct {
	xi int
	d  float64
}

// compareTD is the canonical (d, xi) order: an exact compare on the
// Dijkstra labels themselves, not a tolerance test — any widening would
// make the order depend on neighbors. cmp.Compare treats -0 and +0 as
// equal, as == does; labels are never NaN.
func compareTD(a, b td) int {
	if c := cmp.Compare(a.d, b.d); c != 0 {
		return c
	}
	return a.xi - b.xi
}

// tier2Margin deflates the tier-2 bound of a vertex with kv candidates
// so that it stays below every density the prefix loop rounds to
// (DESIGN.md §11, "Cross-round density floors").
func tier2Margin(kv int) float64 { return 1 - float64(kv+4)*0x1p-52 }

// scanLevel2Range runs the serial density scan over vertices [r.Lo, r.Hi).
//
// Three admissible lower bounds prune dominated vertices before their
// candidate sort. For any prefix size kp <= kv := min(k, |cands(v)|):
//
//	density(v, kp) = (distR[v] + Σ_{kp nearest} d) / kp
//	density(v, kp) >= floor[v]                     (an earlier round's bound)
//	density(v, kp) >= distR[v]/k                   (tier 1: d >= 0, kp <= k)
//	density(v, kp) >= distR[v]/kv + min_x d(v, x)  (tier 2)
//
// A vertex whose bound already reaches the best density seen cannot win
// — winners update on strictly-less — so skipping it never changes the
// selected (vertex, prefix). The floor test costs one load and tier 1
// one division; tier 2 falls out of the candidate-collection pass,
// deflated by tier2Margin against the prefix loop's rounding, and skips
// the sort. An evaluated vertex records as its floor the bound that
// skipped it, its exact minimum density, or +Inf without candidates: a
// later round of the same rg call scans a subset of the terminals with
// a k no larger, so it cannot compute a smaller density (DESIGN.md §11,
// "Cross-round density floors"). The root-bounded reverse sweeps
// (distToAll) shrink candidate lists, and with them kv, but never below
// the winner's prefix size, so tier 2 stays admissible for the winner.
// Each parallel chunk starts from its own +Inf best and touches only its
// own floors, so chunks prune less than the serial scan but select
// identical winners.
func (s *Solver) scanLevel2Range(k int, distR []float64, rem []int, dTo [][]float64, chunk int, r parallel.Range) level2Best {
	best := level2Best{v: -1, density: math.Inf(1)}
	// Chunk-owned buffers: first scan grows them, every later scan runs
	// allocation-free. Written back below so growth sticks.
	bestCov := s.covBuf[chunk][:0]
	var pruned, sorted int64
	cands := s.cands[chunk][:0]
	floor := s.floor
	for v := r.Lo; v < r.Hi; v++ {
		if math.IsInf(distR[v], 1) {
			continue
		}
		if floor[v] >= best.density {
			pruned++
			continue
		}
		if lb := distR[v] / float64(k); lb >= best.density {
			floor[v] = lb
			pruned++
			continue
		}
		cands = cands[:0]
		dmin := math.Inf(1)
		for xi := range rem {
			if d := dTo[xi][v]; !math.IsInf(d, 1) {
				cands = append(cands, td{xi, d})
				if d < dmin {
					dmin = d
				}
			}
		}
		if len(cands) == 0 {
			floor[v] = math.Inf(1)
			continue
		}
		kv := k
		if kv > len(cands) {
			kv = len(cands)
		}
		if lb := (distR[v]/float64(kv) + dmin) * tier2Margin(kv); lb >= best.density {
			floor[v] = lb
			pruned++
			continue
		}
		slices.SortFunc(cands, compareTD)
		sorted++
		prefix, vmin := 0.0, math.Inf(1)
		for kp := 1; kp <= kv; kp++ {
			prefix += cands[kp-1].d
			dens := (distR[v] + prefix) / float64(kp)
			if dens < vmin {
				vmin = dens
			}
			if dens < best.density {
				best.density = dens
				best.v = v
				best.cost = prefix
				best.reach = cands[kp-1].d
				bestCov = bestCov[:0]
				for _, c := range cands[:kp] {
					bestCov = append(bestCov, rem[c.xi])
				}
			}
		}
		floor[v] = vmin
	}
	s.obs.Counter("steiner.level2.pruned").Add(pruned)
	s.obs.Counter("steiner.level2.sorted").Add(sorted)
	s.cands[chunk] = cands
	s.covBuf[chunk] = bestCov
	if best.v == -1 {
		return best
	}
	// best.cov aliases the chunk buffer: the caller consumes it (addPath,
	// covered, subtract) before the next scan can reset the buffer.
	best.cov = bestCov
	return best
}

// scanRecursive evaluates A_{level-1}(k', v, X) for every vertex and
// budget, returning the density-optimal choice. Quadratic in the graph
// size; guarded by maxLevel3Vertices.
func (s *Solver) scanRecursive(level, k int, distR []float64, rem []int) (int, []int, float64) {
	bestV, bestDensity := -1, math.Inf(1)
	var bestCov []int
	var bestCost float64
	for v := 0; v < s.g.N(); v++ {
		if !s.check() {
			return -1, nil, 0
		}
		if math.IsInf(distR[v], 1) {
			continue
		}
		for kp := 1; kp <= k; kp++ {
			_, cov, c := s.rg(level-1, kp, v, rem)
			if len(cov) == 0 {
				continue
			}
			if dens := (distR[v] + c) / float64(len(cov)); dens < bestDensity {
				bestDensity = dens
				bestV = v
				bestCov = cov
				bestCost = c
			}
		}
	}
	return bestV, bestCov, bestCost
}

// rgBase is A_1(k, r, X): connect r to the k nearest reachable terminals
// by direct shortest paths.
func (s *Solver) rgBase(k, r int, X []int) (Solution, []int, float64) {
	dist := s.from(r, graph.Inf).dist
	if cap(s.baseCands) < len(X) {
		s.baseCands = make([]td, 0, len(X))
	}
	cands := s.baseCands[:0]
	for xi, t := range X {
		if d := dist[t]; !math.IsInf(d, 1) {
			cands = append(cands, td{xi, d})
		}
	}
	slices.SortFunc(cands, compareTD)
	if k > len(cands) {
		k = len(cands)
	}
	s.baseCands = cands
	sol := newSolution(r)
	var covered []int
	var cost float64
	for _, c := range cands[:k] {
		t := X[c.xi]
		s.addPath(&sol, r, t, graph.Inf)
		//tmedbvet:ignore hotalloc per-call result accumulation: the coverage escapes to the recursive caller, which holds it across later rounds
		covered = append(covered, t)
		cost += c.d
	}
	return sol, covered, cost
}

// subtract removes the covered terminals from xs in place, marking
// them in a solver-held bit-set keyed by vertex id so the steady-state
// greedy round performs no map allocation. The function maintains the
// all-clear invariant itself: every bit set here is cleared before
// returning.
func (s *Solver) subtract(xs, remove []int) []int {
	if cap(s.rmBits) < s.g.N() {
		s.rmBits = make([]bool, s.g.N())
	}
	rm := s.rmBits[:s.g.N()]
	for _, r := range remove {
		rm[r] = true
	}
	out := xs[:0]
	for _, x := range xs {
		if !rm[x] {
			out = append(out, x)
		}
	}
	for _, r := range remove {
		rm[r] = false
	}
	return out
}
