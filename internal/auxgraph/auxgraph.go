// Package auxgraph builds the auxiliary graph of §VI-A that maps TMEDB
// on a discrete time set to a directed Steiner tree / minimum-energy
// multicast tree instance.
//
// Virtual node u_{i,l} represents "node i at the l-th point of its
// discrete time partition". Zero-weight wait edges u_{i,l} → u_{i,l+1}
// express that informed status persists. Transmission edges express
// Proposition 6.1: every useful cost lies in the sender's discrete cost
// set (DCS). To model the wireless broadcast advantage of Property 6.1
// — paying cost w_k once reaches ALL neighbors whose level is <= k — the
// builder inserts one power vertex per (node, time, level): the sender
// pays w_k on the edge into the power vertex, and free edges fan out to
// every covered receiver at time t+τ. An ablation option disables the
// expansion and falls back to independent per-link unicast edges.
//
// The built graph lives in a CSR core (auxCore): flat adjacency arrays,
// a lazily-built cached transpose, and per-edge transmission metadata in
// an index array parallel to the CSR edge array. Cores are immutable and
// shared through a process-wide memo (see memo.go); construction
// temporaries come from the graph package's arena.
package auxgraph

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/cancel"
	"repro/internal/dts"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Options tunes the construction.
type Options struct {
	// NoBroadcastAdvantage replaces the power-vertex expansion with
	// independent unicast edges (each receiver paid for separately).
	// Used by the ablation benchmarks.
	NoBroadcastAdvantage bool
	// Workers bounds the worker pool computing the per-(node, DTS-point)
	// discrete cost sets — the ψ-heavy part of the construction. Every
	// (node, point) weight is independent, so the built graph is
	// identical for every value; <= 1 runs serially.
	Workers int
	// Obs receives the "auxgraph" phase span (with a "dcs-construct"
	// child around the ψ-heavy DCS sweep), size attributes, and the DCS
	// pool stats. Nil (the default) records nothing.
	Obs *obs.Recorder
	// Cancel is the cancellation checkpoint token, polled at phase
	// boundaries, through the DCS sweep's worker pool, and per
	// transmission-edge batch. Nil is the zero-overhead uncancellable
	// path; a completed Build is byte-identical for every value.
	Cancel *cancel.Token
	// NoMemo bypasses the process-wide core memo (see memo.go) for this
	// build: the core is always freshly constructed and not cached. The
	// memoized and fresh graphs are identical; the flag exists for
	// benchmarks isolating cold-build cost.
	NoMemo bool
}

// TxMeta describes the transmission a paying auxiliary edge stands for.
type TxMeta struct {
	Relay tvg.NodeID
	T     float64
	W     float64
}

// auxCore is the immutable, shareable part of an auxiliary graph: the
// CSR, its (lazily built) transpose, the vertex layout, and the
// transmission metadata. Everything candidate-independent lives here;
// the Aux wrapper re-binds per-call plumbing (workers, obs, cancel)
// around a core that the memo may hand to many callers concurrently.
type auxCore struct {
	csr  *graph.CSR
	base []int32 // base[i] = vertex id of u_{i,0}
	// metaIdx is parallel to csr.To: metaIdx[e] indexes metas when edge
	// e is a paying transmission edge, -1 otherwise.
	metaIdx   []int32
	metas     []TxMeta
	power     int  // number of power vertices
	advantage bool // built with the power-vertex expansion

	revOnce sync.Once
	rev     *graph.CSR
}

// reverse returns the transpose of the core's CSR, building and caching
// it on first use. The transpose is plain heap memory (never arena-owned)
// because the core may be memoized and outlive any solve.
func (c *auxCore) reverse() *graph.CSR {
	c.revOnce.Do(func() { c.rev = c.csr.Transpose(nil) })
	return c.rev
}

// Aux is the auxiliary graph of one TMEDB instance.
type Aux struct {
	G  *graph.CSR
	D  *dts.DTS
	TV *tveg.Graph

	core    *auxCore
	workers int
	obs     *obs.Recorder
	cancel  *cancel.Token
}

func newAux(c *auxCore, g *tveg.Graph, d *dts.DTS, opts Options) *Aux {
	return &Aux{
		G:       c.csr,
		D:       d,
		TV:      g,
		core:    c,
		workers: opts.Workers,
		obs:     opts.Obs,
		cancel:  opts.Cancel,
	}
}

// Build constructs the auxiliary graph for the TVEG g over the DTS d.
// The core (CSR + transpose + metadata) is served from the process-wide
// memo when the same (graph version, model, params, DTS, advantage)
// instance was built before. The only error Build can return is a
// tripped cancellation checkpoint (cancel.ErrCancelled /
// cancel.ErrBudgetExceeded via opts.Cancel).
func Build(g *tveg.Graph, d *dts.DTS, opts Options) (*Aux, error) {
	sp := opts.Obs.StartPhase("auxgraph")
	defer sp.End()
	advantage := !opts.NoBroadcastAdvantage
	// A DTS with identity 0 was hand-constructed rather than built by
	// dts.Build; it carries no process-unique identity, so caching
	// against it could alias two distinct hand-made instances.
	useMemo := !opts.NoMemo && d.ID() != 0
	var key memoKey
	if useMemo {
		key = keyFor(g, d, advantage)
		if c, ok := memo.Get(key); ok {
			memoHits.Add(1)
			opts.Obs.Counter("auxgraph.memo.hits").Inc()
			annotate(sp, c)
			return newAux(c, g, d, opts), nil
		}
		memoMisses.Add(1)
		opts.Obs.Counter("auxgraph.memo.misses").Inc()
	}
	inner := opts
	inner.Obs = sp.Recorder()
	c, err := buildCore(g, d, advantage, inner)
	if err != nil {
		return nil, err
	}
	if useMemo {
		memo.Put(key, c)
	}
	annotate(sp, c)
	return newAux(c, g, d, opts), nil
}

func annotate(sp *obs.Span, c *auxCore) {
	sp.SetInt("vertices", c.csr.N())
	sp.SetInt("edges", c.csr.M())
	sp.SetInt("power_vertices", c.power)
}

// buildCore runs the §VI-A construction: candidate enumeration, the
// parallel DCS sweep, and edge emission into a flat edge list laid out
// as a CSR by one stable counting sort. Temporaries (the per-candidate
// receiver-index buffer, the counting-sort cursors, the payload
// permutation) come from a pooled arena; the core's own arrays are plain
// heap allocations so the memo can share them indefinitely.
func buildCore(g *tveg.Graph, d *dts.DTS, advantage bool, opts Options) (*auxCore, error) {
	tok := opts.Cancel
	n := g.N()
	base := make([]int32, n)
	total := 0
	for i := 0; i < n; i++ {
		base[i] = int32(total)
		total += len(d.Points[i])
	}

	// Enumerate the candidate (node, point) slots serially — cheap — and
	// fan the DCS evaluations (each an independent ψ query batch) across
	// the worker pool; slots keep their enumeration order, so the built
	// graph is byte-identical for every worker count.
	type tx struct {
		i      tvg.NodeID
		l      int
		t      float64
		levels []tveg.CostLevel
	}
	cands := make([]tx, 0, total)
	tau := g.Tau()
	for i := 0; i < n; i++ {
		for l, t := range d.Points[i] {
			//tmedbvet:ignore floateq DTS points and the deadline are exact partition breakpoints, never TimeTol-skewed planner emissions
			if t+tau > d.Deadline {
				continue // transmission would overrun the delay constraint
			}
			cands = append(cands, tx{i: tvg.NodeID(i), l: l, t: t})
		}
	}

	dcsSpan := opts.Obs.StartPhase("dcs-construct")
	err := parallel.ForEach(opts.Obs.Pool("auxgraph.dcs"), tok, opts.Workers, len(cands), func(k int) {
		cands[k].levels = g.DCS(cands[k].i, cands[k].t)
	})
	dcsSpan.SetInt("candidates", len(cands))
	dcsSpan.End()
	if err != nil {
		return nil, fmt.Errorf("auxgraph: dcs sweep: %w", err)
	}

	txs := cands[:0]
	maxLevels := 0
	for _, x := range cands {
		if len(x.levels) > 0 {
			txs = append(txs, x)
			if len(x.levels) > maxLevels {
				maxLevels = len(x.levels)
			}
		}
	}
	powerVerts := 0
	payCap := 0          // paying edges: at most one per level
	edgeCap := total - n // wait edges
	for _, x := range txs {
		L := len(x.levels)
		payCap += L
		if advantage {
			powerVerts += L
			edgeCap += L + L*(L+1)/2 // paying edges + coverage fan-out bound
		} else {
			edgeCap += L
		}
	}

	ar := graph.GetArena()
	defer graph.PutArena(ar)
	el := &graph.EdgeList{
		U: make([]int32, 0, edgeCap),
		V: make([]int32, 0, edgeCap),
		W: make([]float64, 0, edgeCap),
	}

	// Wait edges.
	for i := 0; i < n; i++ {
		for l := 0; l+1 < len(d.Points[i]); l++ {
			el.Add(base[i]+int32(l), base[i]+int32(l+1), 0)
		}
	}

	// Transmission edges. payPos remembers which edge-list entries pay
	// (parallel to metas); fs caches each level's receiver index once per
	// candidate — the coverage fan-out reuses it across power levels
	// instead of redoing the partition binary search per (level, covered)
	// pair.
	payPos := make([]int32, 0, payCap)
	metas := make([]TxMeta, 0, payCap)
	fs := ar.I32(maxLevels)
	next := int32(total)
	for _, x := range txs {
		if err := tok.Check(); err != nil {
			return nil, fmt.Errorf("auxgraph: transmission edges: %w", err)
		}
		u := base[x.i] + int32(x.l)
		for j, lvl := range x.levels {
			fs[j] = int32(d.IndexAtOrAfter(lvl.Node, x.t+tau))
		}
		if !advantage {
			for j, lvl := range x.levels {
				if fs[j] < 0 {
					continue
				}
				el.Add(u, base[lvl.Node]+fs[j], lvl.W)
				payPos = append(payPos, int32(el.Len()-1))
				metas = append(metas, TxMeta{Relay: x.i, T: x.t, W: lvl.W})
			}
			continue
		}
		for k, lvl := range x.levels {
			p := next
			next++
			el.Add(u, p, lvl.W)
			payPos = append(payPos, int32(el.Len()-1))
			metas = append(metas, TxMeta{Relay: x.i, T: x.t, W: lvl.W})
			// level k covers neighbors 0..k
			for j := 0; j <= k; j++ {
				if fs[j] < 0 {
					continue
				}
				el.Add(p, base[x.levels[j].Node]+fs[j], 0)
			}
		}
	}
	ar.PutI32(fs)

	csr, pos := graph.BuildCSR(total+powerVerts, el, ar)
	metaIdx := make([]int32, csr.M())
	for i := range metaIdx {
		metaIdx[i] = -1
	}
	for k, li := range payPos {
		metaIdx[pos[li]] = int32(k)
	}
	ar.PutI32(pos)
	st := ar.Stats()
	opts.Obs.Counter("graph.arena.reuses").Add(st.Reuses)
	opts.Obs.Counter("graph.arena.allocs").Add(st.Allocs)
	return &auxCore{
		csr:       csr,
		base:      base,
		metaIdx:   metaIdx,
		metas:     metas,
		power:     powerVerts,
		advantage: advantage,
	}, nil
}

// Vertex returns the auxiliary vertex id of u_{i,l}.
func (a *Aux) Vertex(i tvg.NodeID, l int) int { return int(a.core.base[i]) + l }

// SourceVertex returns the root of the Steiner instance for a broadcast
// from src starting at the DTS window start.
func (a *Aux) SourceVertex(src tvg.NodeID) int { return int(a.core.base[src]) }

// Reverse returns the memoized transpose of the auxiliary graph,
// building it on first use. Planners inject it into their Steiner
// solvers (steiner.Solver.WithReverse) so repeated solves on a memoized
// core never recompute it.
func (a *Aux) Reverse() *graph.CSR { return a.core.reverse() }

// Terminals returns the Steiner terminal set D = {u_{i,h_i}}: the last
// DTS point of every node. The source's terminal is reachable through
// its own wait edges at zero cost, so including it is harmless.
func (a *Aux) Terminals() []int {
	out := make([]int, a.TV.N())
	for i := range out {
		out[i] = int(a.core.base[i]) + a.D.Last(tvg.NodeID(i))
	}
	return out
}

// MetaFor returns the transmission behind a paying edge, if any. It
// scans u's CSR row — out-degrees are small (wait edge + per-level
// fan-out), so the scan beats a hash lookup on the hot path.
//
//tmedbvet:hotpath
func (a *Aux) MetaFor(u, v int) (TxMeta, bool) {
	c := a.core
	g := c.csr
	for e := g.Off[u]; e < g.Off[u+1]; e++ {
		if int(g.To[e]) == v && c.metaIdx[e] >= 0 {
			return c.metas[c.metaIdx[e]], true
		}
	}
	return TxMeta{}, false
}

// ScheduleFromSolution converts a Steiner solution on the auxiliary graph
// back into a broadcast relay schedule. With the broadcast advantage on,
// multiple chosen power levels of the same (relay, time) collapse into
// one transmission at the maximum cost (Property 6.1: the higher level
// covers everything the lower ones did). In unicast (no-advantage) mode
// every paying edge stays its own transmission — that is exactly the
// modeling difference the ablation measures.
func (a *Aux) ScheduleFromSolution(sol steiner.Solution) schedule.Schedule {
	var s schedule.Schedule
	if a.core.advantage {
		type key struct {
			relay tvg.NodeID
			t     float64
		}
		best := make(map[key]float64)
		for _, e := range sol.Edges() {
			m, ok := a.MetaFor(int(e[0]), int(e[1]))
			if !ok {
				continue
			}
			k := key{m.Relay, m.T}
			if m.W > best[k] {
				best[k] = m.W
			}
		}
		// Emit in sorted key order: the SortByTime below is stable by T
		// only, so equal-time rows would otherwise keep Go's randomized
		// map iteration order and the planned schedule would differ
		// between runs (tmedbvet detrange contract).
		keys := make([]key, 0, len(best))
		for k := range best {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].t != keys[j].t {
				return keys[i].t < keys[j].t
			}
			return keys[i].relay < keys[j].relay
		})
		for _, k := range keys {
			s = append(s, schedule.Transmission{Relay: k.relay, T: k.t, W: best[k]})
		}
	} else {
		for _, e := range sol.Edges() {
			m, ok := a.MetaFor(int(e[0]), int(e[1]))
			if !ok {
				continue
			}
			s = append(s, schedule.Transmission{Relay: m.Relay, T: m.T, W: m.W})
		}
	}
	s.SortByTime()
	return s
}

// Stats summarizes the construction for logging and the complexity
// benchmarks.
type Stats struct {
	Vertices, Edges, PowerVertices int
}

// Stats returns size statistics of the auxiliary graph.
func (a *Aux) Stats() Stats {
	return Stats{
		Vertices:      a.G.N(),
		Edges:         a.G.M(),
		PowerVertices: a.core.power,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("aux{V=%d E=%d power=%d}", s.Vertices, s.Edges, s.PowerVertices)
}

// Solve runs the level-ℓ recursive greedy Steiner approximation on the
// auxiliary graph for a broadcast from src and maps the result back to a
// schedule. level <= 1 selects the shortest-path-tree heuristic.
func (a *Aux) Solve(src tvg.NodeID, level int) (schedule.Schedule, error) {
	solver := steiner.NewSolver(a.G).
		WithReverse(a.Reverse()).
		SetWorkers(a.workers).
		SetObs(a.obs).
		SetCancel(a.cancel)
	defer solver.Release()
	root := a.SourceVertex(src)
	terms := a.Terminals()
	var (
		sol steiner.Solution
		err error
	)
	if level <= 1 {
		sol, err = solver.ShortestPathTree(root, terms)
	} else {
		sol, err = solver.RecursiveGreedy(root, terms, level)
	}
	if err != nil {
		return nil, fmt.Errorf("auxgraph: %w", err)
	}
	// ScheduleFromSolution's order is deterministic but not causal:
	// equal-time rows come in relay order (with the broadcast
	// advantage) or solution-edge order (without), and τ = 0 non-stop
	// chains share one timestamp, so a relay can sort ahead of the
	// transmission that informs it. Establish the causal order every
	// executor and feasibility check expects.
	return schedule.CausalSort(a.TV, a.ScheduleFromSolution(sol), src, a.D.T0), nil
}
