package tveg

import (
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/tvg"
)

// costCache answers DCS and MinCost from one cost-set timeline per
// node; New attaches one to every graph. Node i's discrete cost set
// W_{i,t}^di is piecewise constant in t: it changes only where one of
// i's links appears, disappears or changes its contact. A timeline
// holds those piece starts and one slot per piece and channel model,
// which the first query landing in the piece fills by CompareAndSwap;
// every later query in the piece is a binary search plus an atomic
// load, with no lock and no hash.
// MinCost(i, j, t) reads j's entry of the same cost set. Timelines are
// built on their node's first query and filled lazily (DESIGN.md §6).
//
// Invalidation rules:
//   - An edit to the pair (a, b) drops the timelines of a and b; a
//     node's cost sets depend only on its own incident links. The
//     ED-function memo keys on channel parameters (β, ε) and survives.
//   - WithModel views share the cache; each slot belongs to one model.
//   - A timeline records the Params it was built under. A query through
//     a graph or view with other Params is answered uncached.
type costCache struct {
	nodes  []atomic.Pointer[timeline]
	edMemo channel.Memo

	// Hit/miss counters for the observability layer; no planner reads
	// them back.
	minCostHits, minCostMisses atomic.Int64
	dcsHits, dcsMisses         atomic.Int64
}

// numModels is the number of channel models, and so of slots per piece.
const numModels = int(NakagamiFading) + 1

// timeline is one node's cost sets over time. Piece p holds the times
// with exactly p starts at or below them. Within a piece every incident
// link's ρ_τ and channel segment stay constant, so one dcsUncached call
// answers the whole piece.
type timeline struct {
	params Params
	starts []float64
	// sets[p*numModels+m] is piece p's cost set under model m, nil until
	// filled. Filled sets are shared with callers and never modified.
	sets []atomic.Pointer[[]CostLevel]
}

// newTimeline collects node i's piece starts: the points where ρ_τ or
// the contact of one of its links can change. ρ_τ over a presence
// interval [S, E) holds iff S <= t and t+τ < E, so it flips at S and at
// windowEnd(E, τ); SegmentAt flips at each contact's Start and End.
func (g *Graph) newTimeline(i tvg.NodeID) *timeline {
	tau := g.Tau()
	var starts []float64
	for _, j := range g.EverNeighbors(i) {
		for _, iv := range g.Presence(i, j).Intervals() {
			starts = append(starts, iv.Start, windowEnd(iv.End, tau))
		}
		for _, s := range g.Contacts(i, j) {
			starts = append(starts, s.Iv.Start, s.Iv.End)
		}
	}
	slices.Sort(starts)
	starts = slices.Compact(starts)
	return &timeline{
		params: g.Params,
		starts: starts,
		sets:   make([]atomic.Pointer[[]CostLevel], (len(starts)+1)*numModels),
	}
}

// windowEnd returns the first float64 c at which ContainsWindow's test
// c+τ < end turns false. At τ = 0 that is end itself. For τ > 0 the
// rounded end−τ can sit an ulp off that point, so step from it:
// rounding keeps fl(t+τ) non-decreasing in t, so the flip point is
// unique — the c at which the test fails while it holds one ulp below.
// The p < c guard stops the walk at -Inf and on NaN.
func windowEnd(end, tau float64) float64 {
	if tau == 0 {
		return end
	}
	c := end - tau
	for c+tau < end {
		c = math.Nextafter(c, math.Inf(1))
	}
	for {
		p := math.Nextafter(c, math.Inf(-1))
		if p+tau < end || !(p < c) {
			return c
		}
		c = p
	}
}

// piece returns the index of t's piece: the position of the first start
// greater than t.
func (tl *timeline) piece(t float64) int {
	lo, hi := 0, len(tl.starts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if tl.starts[m] > t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// costSet returns node i's cost set at t under g's model, counting the
// query as one hit when its piece was already filled and one miss
// otherwise. The first query on a node builds its timeline. A query the
// timeline cannot answer (g's Params differ from the timeline's, or the
// model has no slot) is computed uncached.
func (c *costCache) costSet(g *Graph, i tvg.NodeID, t float64, hits, misses *atomic.Int64) []CostLevel {
	tl := c.nodes[i].Load()
	if tl == nil {
		tl = g.newTimeline(i)
		if !c.nodes[i].CompareAndSwap(nil, tl) {
			tl = c.nodes[i].Load()
		}
	}
	if tl.params != g.Params || uint(g.Model) >= uint(numModels) {
		misses.Add(1)
		return g.dcsUncached(i, t)
	}
	slot := &tl.sets[tl.piece(t)*numModels+int(g.Model)]
	if p := slot.Load(); p != nil {
		hits.Add(1)
		return *p
	}
	misses.Add(1)
	out := g.dcsUncached(i, t)
	slot.CompareAndSwap(nil, &out)
	return out
}

// invalidatePair drops the timelines of a and b, the only nodes whose
// cost sets an edit to the edge (a, b) can change. Hit/miss counters
// keep accumulating across edits so cache-effectiveness metrics span
// edit sequences.
func (c *costCache) invalidatePair(a, b tvg.NodeID) {
	c.nodes[a].Store(nil)
	c.nodes[b].Store(nil)
}

// CacheStats is a point-in-time view of the cost cache's effectiveness:
// one hit/miss/size triple per query family. Each DCS or MinCost query
// counts one hit when its piece was already filled and one miss
// otherwise. DCSSize is the number of pieces filled, whichever family
// filled them; MinCost reads those pieces and holds no entries of its
// own, so MinCostSize is 0.
type CacheStats struct {
	MinCostHits, MinCostMisses, MinCostSize int64
	DCSHits, DCSMisses, DCSSize             int64
	// EDMemo is the underlying Rician/Nakagami MinCost-inversion memo
	// shared by all pieces.
	EDMemo channel.MemoStats
}

// CostCacheStats returns the cache counters; ok is always true, since
// every graph has the cache. The numbers are individually atomic but
// not mutually consistent under concurrent queries — metrics-grade, by
// design.
func (g *Graph) CostCacheStats() (CacheStats, bool) {
	c := g.cache
	st := CacheStats{
		MinCostHits:   c.minCostHits.Load(),
		MinCostMisses: c.minCostMisses.Load(),
		DCSHits:       c.dcsHits.Load(),
		DCSMisses:     c.dcsMisses.Load(),
		EDMemo:        c.edMemo.Stats(),
	}
	for i := range c.nodes {
		if tl := c.nodes[i].Load(); tl != nil {
			for k := range tl.sets {
				if tl.sets[k].Load() != nil {
					st.DCSSize++
				}
			}
		}
	}
	return st, true
}

// EnableCostCache returns g unchanged: every graph carries its cost-set
// timelines from New. It remains for the repository benchmark
// (bench/), which calls it.
func (g *Graph) EnableCostCache() *Graph { return g }
