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
// lazily — one forward sweep per recursion root, whose predecessors
// materialize paths, and one distance-only reverse-graph sweep per
// terminal, stopped at the scan root's own distance to it — into
// arena-recycled buffers, and the level-2
// density scan prunes dominated candidate vertices with an admissible
// lower bound before paying for their candidate sort. Levels >= 3 need
// forward distances from arbitrary vertices and are therefore restricted
// to small graphs.
package steiner

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cancel"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// maxLevel3Vertices bounds the graph size accepted by levels >= 3, whose
// per-vertex forward Dijkstra caching is quadratic in the worst case.
const maxLevel3Vertices = 4000

// edgeID identifies a directed edge by endpoints.
type edgeID struct{ U, V int }

// Solution is a subgraph (a union of root-to-terminal paths) solving a
// Steiner instance.
type Solution struct {
	Root  int
	edges map[edgeID]float64
}

func newSolution(root int) Solution {
	//tmedbvet:ignore hotalloc per-solve result object: the edge map escapes to the caller and outlives the solver's buffers
	return Solution{Root: root, edges: make(map[edgeID]float64)}
}

// Cost returns the total weight of the distinct edges in the solution,
// summed in Edges order so that every call rounds the same way.
func (s Solution) Cost() float64 {
	var c float64
	for _, e := range s.Edges() {
		c += e[2]
	}
	return c
}

// NumEdges returns the number of distinct edges.
func (s Solution) NumEdges() int { return len(s.edges) }

// Edges returns the solution edges as (u, v, w) triples, in deterministic
// order.
func (s Solution) Edges() [][3]float64 {
	out := make([][3]float64, 0, len(s.edges))
	for id, w := range s.edges {
		out = append(out, [3]float64{float64(id.U), float64(id.V), w})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// addEdge merges an edge, keeping the cheaper weight for duplicates.
func (s Solution) addEdge(u, v int, w float64) {
	id := edgeID{u, v}
	if old, ok := s.edges[id]; !ok || w < old {
		s.edges[id] = w
	}
}

// merge folds other into s.
func (s Solution) merge(other Solution) {
	for id, w := range other.edges {
		if old, ok := s.edges[id]; !ok || w < old {
			s.edges[id] = w
		}
	}
}

// ReachableFromRoot returns the vertices reachable from the root using
// only solution edges.
func (s Solution) ReachableFromRoot() map[int]bool {
	adj := make(map[int][]int)
	//tmedbvet:ignore detrange adjacency build for a reachability sweep: the computed vertex set is order-independent
	for id := range s.edges {
		adj[id.U] = append(adj[id.U], id.V)
	}
	seen := map[int]bool{s.Root: true}
	stack := []int{s.Root}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// Pruned returns the solution restricted to its useful edges: those on
// some root→terminal path (the tail u reachable from the root, the head
// v reaching a terminal). Union-of-paths constructions can leave dead
// branches behind — e.g. a power vertex adopted for several terminals of
// which later greedy rounds re-covered some more cheaply — and pruning
// removes their cost without affecting coverage.
func (s Solution) Pruned(terminals []int) Solution {
	// Removing a dead branch can expose another (its feeder), so iterate
	// to a fixpoint; each pass strictly shrinks the edge set.
	for {
		next := s.prunedOnce(terminals)
		if next.NumEdges() == s.NumEdges() {
			return next
		}
		s = next
	}
}

func (s Solution) prunedOnce(terminals []int) Solution {
	fwd := s.ReachableFromRoot()
	radj := make(map[int][]int)
	//tmedbvet:ignore detrange adjacency build for a reverse reachability sweep: the computed vertex set is order-independent
	for id := range s.edges {
		radj[id.V] = append(radj[id.V], id.U)
	}
	rev := make(map[int]bool, len(terminals))
	var stack []int
	for _, t := range terminals {
		if !rev[t] {
			rev[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range radj[v] {
			if !rev[u] {
				rev[u] = true
				stack = append(stack, u)
			}
		}
	}
	out := newSolution(s.Root)
	for id, w := range s.edges {
		if fwd[id.U] && rev[id.V] {
			out.edges[id] = w
		}
	}
	return out
}

// Verify checks that the solution is sound for the instance: every edge
// exists in g with at least the claimed weight available, and every
// terminal is reachable from the root through solution edges.
func (s Solution) Verify(g *graph.CSR, terminals []int) error {
	for id, w := range s.edges {
		found := false
		for ei := g.Off[id.U]; ei < g.Off[id.U+1]; ei++ {
			if int(g.To[ei]) == id.V && g.W[ei] <= w+1e-12 {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("steiner: edge (%d,%d,w=%g) not in graph", id.U, id.V, w)
		}
	}
	reach := s.ReachableFromRoot()
	for _, t := range terminals {
		if !reach[t] {
			return fmt.Errorf("steiner: terminal %d not reachable from root %d", t, s.Root)
		}
	}
	return nil
}

// sp caches one forward Dijkstra run. The slices are arena-owned;
// Release recycles them, after which the sp must not be read.
type sp struct {
	dist []float64
	prev []int32
}

// revSlack widens each reverse sweep's limit past the scan root's
// forward distance distR[x]. That forward label and the reverse label
// d(r, x) sum one path in opposite orders, so they can differ by
// rounding; 1e-9 covers the error of paths of over a million edges.
const revSlack = 1e-9

// sweepLimit is how far a scan whose root has forward distances distR
// needs the reverse sweep to terminal x.
func sweepLimit(distR []float64, x int) float64 { return distR[x] * (1 + revSlack) }

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
	rev *graph.CSR  // lazily built transpose; see revGraph / WithReverse
	fwd map[int]*sp // forward Dijkstra per source
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

func (s *Solver) from(u int) *sp {
	if c, ok := s.fwd[u]; ok {
		return c
	}
	s.obs.Counter("steiner.dijkstra.fwd").Inc()
	n := s.g.N()
	//tmedbvet:ignore hotalloc fwd cache fill: one pair of arena-backed headers per distinct source, amortized across every later query
	c := &sp{dist: s.arena.F64(n), prev: s.arena.I32(n)}
	pops := s.scratch.Pops
	s.g.ShortestPathsInto(u, c.dist, c.prev, s.scratch)
	s.obs.Counter("steiner.dijkstra.fwd_settled").Add(s.scratch.Pops - pops)
	s.fwd[u] = c
	return c
}

// distToAll returns dTo[xi] = dist(·, rem[xi]) for every terminal, as
// far as a density scan from a root with forward distances distR can
// use: every label up to sweepLimit(distR, x) is exact, and larger ones
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
		limit := sweepLimit(distR, x)
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
		rev.DistancesInto(rem[xi], sweepLimit(distR, rem[xi]), dTo[xi], sc)
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
func (s *Solver) Dist(u, v int) float64 { return s.from(u).dist[v] }

// addPath merges the shortest path u→v into sol. It returns false when v
// is unreachable from u.
func (s *Solver) addPath(sol Solution, u, v int) bool {
	c := s.from(u)
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
		if !s.addPath(sol, root, t) {
			return Solution{}, fmt.Errorf("steiner: terminal %d unreachable from %d", t, root)
		}
	}
	return sol.Pruned(terminals), nil
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
	rootDist := s.from(root).dist
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
	return sol.Pruned(terminals), nil
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
	distR := s.from(r).dist
	for k > 0 && len(rem) > 0 {
		if !s.check() {
			break
		}
		var bestV int
		var bestCov []int
		var bestCost float64
		if level == 2 {
			bestV, bestCov, bestCost = s.scanLevel2(k, distR, rem)
		} else {
			bestV, bestCov, bestCost = s.scanRecursive(level, k, distR, rem)
		}
		if bestV == -1 {
			break
		}
		// materialize: path r→bestV plus paths bestV→covered terminals
		s.addPath(sol, r, bestV)
		for _, x := range bestCov {
			s.addPath(sol, bestV, x)
		}
		cost += distR[bestV] + bestCost
		//tmedbvet:ignore hotalloc per-call result accumulation: the coverage escapes to the recursive caller, which holds it across later rounds
		covered = append(covered, bestCov...)
		rem = s.subtract(rem, bestCov)
		k -= len(bestCov)
	}
	return sol, covered, cost
}

// scanLevel2 finds the vertex v and prefix size k' minimizing the A_1
// density (d(r,v) + Σ_{k' nearest} d(v,x)) / k', using reverse-graph
// distances to the remaining terminals. It returns (-1, nil, 0) when no
// vertex can reach any terminal.
//
// The vertex scan is embarrassingly parallel: the space is split into
// contiguous chunks, each chunk runs the serial scan code, and the
// per-chunk winners merge in ascending chunk order with a strictly-less
// density comparison — exactly reproducing the serial "first vertex
// achieving the global minimum wins" tie-break for every worker count.
func (s *Solver) scanLevel2(k int, distR []float64, rem []int) (int, []int, float64) {
	s.obs.Counter("steiner.level2.scans").Inc()
	s.obs.Counter("steiner.level2.vertices_scanned").Add(int64(s.g.N()))
	dTo := s.distToAll(distR, rem) // dTo[xi][v] = dist(v, rem[xi]), root-bounded
	if dTo == nil {
		return -1, nil, 0 // cancellation latched in distToAll
	}
	ranges := parallel.ChunkRanges(s.workers, s.g.N())
	if cap(s.cands) < len(ranges) {
		s.cands = make([][]td, len(ranges))
		s.covBuf = make([][]int, len(ranges))
		s.locals = make([]level2Best, len(ranges))
	}
	if len(ranges) == 1 {
		best := s.scanLevel2Range(k, distR, rem, dTo, 0, ranges[0])
		return best.v, best.cov, best.cost
	}
	locals := s.locals[:len(ranges)]
	//tmedbvet:ignore hotalloc one capturing closure per pool fan-out, not per work item; the fan-out itself costs goroutine spawns
	_ = parallel.ForEach(s.obs.Pool("steiner.scan"), nil, s.workers, len(ranges), func(c int) {
		locals[c] = s.scanLevel2Range(k, distR, rem, dTo, c, ranges[c])
	}) // nil token: never fails
	best := level2Best{v: -1, density: math.Inf(1)}
	for _, l := range locals {
		if l.v != -1 && l.density < best.density {
			best = l
		}
	}
	return best.v, best.cov, best.cost
}

// level2Best is one (local) winner of the level-2 density scan.
type level2Best struct {
	v       int
	cov     []int
	cost    float64
	density float64
}

// td is one candidate (terminal index, distance) pair of the density
// scan; candidates order canonically by (d, xi).
type td struct {
	xi int
	d  float64
}

// scanLevel2Range runs the serial density scan over vertices [r.Lo, r.Hi).
//
// Two admissible lower bounds prune dominated vertices before their
// candidate sort. For any prefix size kp <= kv := min(k, |cands(v)|):
//
//	density(v, kp) = (distR[v] + Σ_{kp nearest} d) / kp
//	              >= distR[v]/k                    (tier 1: d >= 0, kp <= k)
//	              >= distR[v]/kv + min_x d(v, x)   (tier 2)
//
// A vertex whose bound already reaches the best density seen cannot win
// — winners update on strictly-less — so skipping it never changes the
// selected (vertex, prefix). Tier 1 costs one division; tier 2 falls out
// of the candidate-collection pass and skips the sort. The root-bounded
// reverse sweeps (distToAll) shrink candidate lists, and with them kv,
// but never below the winner's prefix size, so tier 2 stays admissible
// for the winner. Each parallel chunk starts from its own +Inf best, so
// chunks prune less than the serial scan but select identical winners.
func (s *Solver) scanLevel2Range(k int, distR []float64, rem []int, dTo [][]float64, chunk int, r parallel.Range) level2Best {
	best := level2Best{v: -1, density: math.Inf(1)}
	// Chunk-owned buffers: first scan grows them, every later scan runs
	// allocation-free. Written back below so growth sticks.
	bestCov := s.covBuf[chunk][:0]
	var pruned int64
	cands := s.cands[chunk][:0]
	for v := r.Lo; v < r.Hi; v++ {
		if math.IsInf(distR[v], 1) {
			continue
		}
		if distR[v]/float64(k) >= best.density {
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
			continue
		}
		kv := k
		if kv > len(cands) {
			kv = len(cands)
		}
		if distR[v]/float64(kv)+dmin >= best.density {
			pruned++
			continue
		}
		slices.SortFunc(cands, func(a, b td) int {
			// Canonical (distance, terminal-index) order: exact compare on
			// the Dijkstra labels themselves, not a tolerance test — any
			// widening would make the sort order depend on neighbors.
			//tmedbvet:ignore floateq deterministic tie-break sorts on exact Dijkstra labels
			if a.d != b.d {
				if a.d < b.d {
					return -1
				}
				return 1
			}
			return a.xi - b.xi
		})
		prefix := 0.0
		for kp := 1; kp <= kv; kp++ {
			prefix += cands[kp-1].d
			if dens := (distR[v] + prefix) / float64(kp); dens < best.density {
				best.density = dens
				best.v = v
				best.cost = prefix
				bestCov = bestCov[:0]
				for _, c := range cands[:kp] {
					bestCov = append(bestCov, rem[c.xi])
				}
			}
		}
	}
	s.obs.Counter("steiner.level2.pruned").Add(pruned)
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
	dist := s.from(r).dist
	if cap(s.baseCands) < len(X) {
		s.baseCands = make([]td, 0, len(X))
	}
	cands := s.baseCands[:0]
	for xi, t := range X {
		if d := dist[t]; !math.IsInf(d, 1) {
			cands = append(cands, td{xi, d})
		}
	}
	slices.SortFunc(cands, func(a, b td) int {
		// Same canonical exact-label tie-break as scanLevel2Range.
		//tmedbvet:ignore floateq deterministic tie-break sorts on exact Dijkstra labels
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		return a.xi - b.xi
	})
	if k > len(cands) {
		k = len(cands)
	}
	s.baseCands = cands
	sol := newSolution(r)
	var covered []int
	var cost float64
	for _, c := range cands[:k] {
		t := X[c.xi]
		s.addPath(sol, r, t)
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
