// Package dts implements the discrete time set of §V: the per-node time
// points at which an optimal TMEDB schedule can be assumed to transmit.
//
// Theorem 5.2 shows that TMEDB on continuous time is equivalent to TMEDB
// restricted to the DTS: by the ET-law (Proposition 5.1), every feasible
// schedule can be normalized so each relay transmits either at the start
// of one of its adjacency intervals or at the moment it became informed.
// Adjacency-interval starts are breakpoints of the adjacent partitions
// P_i^ad, the points where a pair's ρ_τ or contact changes
// (tvg.Graph.ChangePoints); informed-times are arrivals of earlier
// transmissions, i.e. earlier DTS points shifted by the traversal time
// τ. The closure of the adjacency breakpoints under "+kτ" (up to the
// non-stop journey length, at most N hops) therefore contains every
// time an optimal schedule needs — O(N³L) points in general and O(N²L)
// when τ ≈ 0, matching §V.
//
// Build additionally prunes, per node, the points at which the node has
// no neighbor: it can neither transmit nor receive there, and the
// auxiliary graph's zero-weight wait edges carry informed status across
// the gap unchanged. Pruning preserves the Theorem 5.2 equivalence while
// shrinking the auxiliary graph dramatically on sparse contact traces.
package dts

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/cancel"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tvg"
)

// Options tunes the DTS construction.
type Options struct {
	// NoPrune disables the zero-degree point pruning (used by the
	// ablation benchmarks; the pruned and unpruned DTS admit the same
	// optimal schedules).
	NoPrune bool
	// Workers bounds the worker pool for the per-node partition
	// filtering (the O(N·|global|) presence-query sweep). Each node's
	// partition is computed independently, so the result is identical
	// for every value; <= 1 runs serially.
	Workers int
	// Obs receives the "dts" phase span, point-count attributes, and the
	// filter-sweep pool stats. Nil (the default) records nothing.
	Obs *obs.Recorder
	// Cancel is the cancellation checkpoint token. Build polls it at
	// phase boundaries and per outer-loop iteration, returning its typed
	// error promptly when it trips. Nil (the default) is the
	// zero-overhead uncancellable path; a completed Build is
	// byte-identical for every value.
	Cancel *cancel.Token
	// NoMemo bypasses the process-wide DTS memo (see memo.go) for this
	// build: the result is always freshly constructed and not cached.
	// The memoized and fresh DTS are identical; the flag exists for
	// benchmarks isolating cold-build cost.
	NoMemo bool
}

// DTS is a discrete time set D_V: one discrete time partition P_i^di per
// node, over the window [T0, Deadline].
type DTS struct {
	T0, Deadline float64
	// Points[i] holds P_i^di, sorted ascending. The final point is
	// always Deadline (the terminal marker used by the auxiliary graph).
	Points [][]float64
	// id is the process-unique identity stamped by Build. The auxiliary
	// graph memo keys on it instead of the *DTS pointer: in a
	// long-running process a collected DTS's address can be recycled for
	// a fresh one, and a pointer-keyed cache would then serve the dead
	// instance's cores. IDs are never reused; 0 means "hand-constructed,
	// never memoize against".
	id uint64
}

// nextDTSID hands out process-unique DTS identities; 0 is reserved for
// hand-constructed values that must never hit an identity-keyed cache.
var nextDTSID atomic.Uint64

// ID returns the DTS's process-unique identity (0 for hand-constructed
// values that did not come out of Build).
func (d *DTS) ID() uint64 { return d.id }

// SetIDForTest overrides the DTS identity. It exists solely so
// regression tests can force two distinct DTS values onto one ID and
// prove a cache keyed on recycled identities serves stale artifacts;
// production code must never call it.
func (d *DTS) SetIDForTest(id uint64) { d.id = id }

// timeEps is the tolerance for deduplicating time points.
const timeEps = 1e-9

// Build computes the DTS of g for a broadcast starting at t0 with delay
// constraint deadline (absolute time, t0 < deadline <= span end). The
// only error Build can return is a tripped cancellation checkpoint
// (cancel.ErrCancelled / cancel.ErrBudgetExceeded via opts.Cancel).
func Build(g *tvg.Graph, t0, deadline float64, opts Options) (*DTS, error) {
	var key memoKey
	if !opts.NoMemo {
		key = keyFor(g, t0, deadline, opts)
		if d, ok := memo.Get(key); ok {
			memoHits.Add(1)
			opts.Obs.Counter("dts.memo.hits").Inc()
			return d, nil
		}
		memoMisses.Add(1)
		opts.Obs.Counter("dts.memo.misses").Inc()
	}
	span := g.Span()
	if t0 < span.Start || deadline > span.End || deadline <= t0 {
		panic(fmt.Sprintf("dts: window [%g,%g] outside span [%g,%g]", t0, deadline, span.Start, span.End))
	}
	sp := opts.Obs.StartPhase("dts")
	defer sp.End()
	tok := opts.Cancel
	n := g.N()
	base, global, err := globalPoints(g, t0, deadline, n-1, tok)
	if err != nil {
		return nil, err
	}

	// 3. Per-node partitions: keep points where the node can act, plus
	// the window endpoints. Each node's filter only reads the graph and
	// writes its own slot, so the sweep parallelizes without changing
	// the result.
	pts := make([][]float64, n)
	err = parallel.ForEach(opts.Obs.Pool("dts.filter"), tok, opts.Workers, n, func(i int) {
		mine := filterNode(g, tvg.NodeID(i), global, opts.NoPrune)
		pts[i] = dedupSorted(append(mine, t0, deadline))
	})
	if err != nil {
		return nil, fmt.Errorf("dts: filter sweep: %w", err)
	}
	d := &DTS{T0: t0, Deadline: deadline, Points: pts, id: nextDTSID.Add(1)}
	sp.SetInt("base_points", len(base))
	sp.SetInt("global_points", len(global))
	sp.SetInt("total_points", d.TotalPoints())
	if !opts.NoMemo {
		memo.Put(key, d)
	}
	return d, nil
}

// globalPoints runs steps 1–2 of the construction: the adjacency
// breakpoints of every pair clipped to the window, then the +kτ closure
// up to maxHops hops.
func globalPoints(g *tvg.Graph, t0, deadline float64, maxHops int, tok *cancel.Token) (base, global []float64, err error) {
	n := g.N()
	tau := g.Tau()

	// 1. Adjacency breakpoints of every pair (ρ_τ flips and contact
	// changes inside an adjacency interval), clipped to the window.
	base = []float64{t0}
	var pts []float64
	for i := 0; i < n; i++ {
		if err := tok.Check(); err != nil {
			return nil, nil, fmt.Errorf("dts: breakpoints: %w", err)
		}
		for _, j := range g.EverNeighbors(tvg.NodeID(i)) {
			if tvg.NodeID(i) > j {
				continue // each pair once
			}
			pts = g.ChangePoints(tvg.NodeID(i), j, pts[:0])
			for _, p := range pts {
				if p >= t0 && p <= deadline {
					base = append(base, p)
				}
			}
		}
	}
	base = dedupSorted(base)

	// 2. τ-propagation: each point spawns t+kτ (arrival chains of
	// non-stop journeys).
	if tau > 0 {
		global = make([]float64, 0, len(base)*(maxHops+1))
		for _, p := range base {
			if err := tok.Check(); err != nil {
				return nil, nil, fmt.Errorf("dts: tau-propagation: %w", err)
			}
			for k := 0; k <= maxHops; k++ {
				q := p + float64(k)*tau
				if q > deadline {
					break
				}
				global = append(global, q)
			}
		}
		global = dedupSorted(global)
	} else {
		global = base
	}
	return base, global, nil
}

// filterNode runs step 3 for node i: it returns the global points i
// keeps (those where i has a neighbor, or every point under noPrune),
// with room for the two window endpoints. One merge-walk of the sorted
// global list against i's presence intervals answers every point
// (tvg.Graph.ActivePoints).
func filterNode(g *tvg.Graph, i tvg.NodeID, global []float64, noPrune bool) []float64 {
	if noPrune {
		return append(make([]float64, 0, len(global)+2), global...)
	}
	idx := g.ActivePoints(i, global, make([]int, 0, len(global)))
	mine := make([]float64, 0, len(idx)+2)
	for _, p := range idx {
		mine = append(mine, global[p])
	}
	return mine
}

func dedupSorted(xs []float64) []float64 {
	sort.Float64s(xs)
	out := xs[:0]
	for _, x := range xs {
		if len(out) == 0 || x-out[len(out)-1] > timeEps {
			out = append(out, x)
		}
	}
	return out
}

// TotalPoints returns Σ_i |P_i^di|, the size driving the auxiliary graph.
func (d *DTS) TotalPoints() int {
	total := 0
	for _, p := range d.Points {
		total += len(p)
	}
	return total
}

// Index returns the index of the largest point of P_i^di that is <= t
// (within tolerance), or -1 when t precedes every point.
//
//tmedbvet:hotpath
func (d *DTS) Index(i tvg.NodeID, t float64) int {
	p := d.Points[i]
	k := sort.SearchFloat64s(p, t+timeEps)
	return k - 1
}

// IndexAtOrAfter returns the index of the smallest point of P_i^di that
// is >= t (within tolerance), or -1 when every point precedes t. It is
// how receptions at time t map onto the receiver's partition: informed
// status persists, so arriving "between" points is equivalent to arriving
// at the next point.
//
//tmedbvet:hotpath
func (d *DTS) IndexAtOrAfter(i tvg.NodeID, t float64) int {
	p := d.Points[i]
	k := sort.SearchFloat64s(p, t-timeEps)
	if k == len(p) {
		return -1
	}
	return k
}

// At returns the l-th point of P_i^di.
func (d *DTS) At(i tvg.NodeID, l int) float64 { return d.Points[i][l] }

// Last returns the index of the terminal point of P_i^di.
func (d *DTS) Last(i tvg.NodeID) int { return len(d.Points[i]) - 1 }

// EarliestTransmissionTime applies the ET-law (Proposition 5.1): given
// that node i became informed at time informed and wants to transmit
// while adjacent to the same node set as at time t, the earliest
// equivalent transmission time is max(informed, start of the adjacency
// interval of t). Both candidates are DTS points by construction.
func EarliestTransmissionTime(g *tvg.Graph, i tvg.NodeID, informed, t float64) float64 {
	// Find the start of the adjacent-partition interval containing t.
	ap := g.AdjacentPartition(i)
	idx := ap.IndexOf(t)
	if idx < 0 {
		return math.Max(informed, t)
	}
	start, _ := ap.Interval(idx)
	return math.Max(informed, start)
}
