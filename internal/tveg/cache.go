package tveg

import (
	"sync"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/tvg"
)

// costCache memoizes the ψ cost queries the planners issue repeatedly at
// identical coordinates: MinCost per (edge, time, model, ε) and the full
// discrete cost set per (node, time, model, ε). Both are pure functions
// of the graph's contacts and parameters, so the cache is invisible to
// results; it exists because the auxiliary-graph construction, the greedy
// backbones, and the candidate evaluation all re-query the same DTS
// points, and under Rician/Nakagami models each miss pays a bisection
// over special functions.
//
// The tables are split per sender node: nodes[i] holds every cached
// query whose sender is i, so a lookup hashes a small concrete key in
// one node's map and an edit touches only its endpoints' tables.
//
// Invalidation rules (documented in DESIGN.md):
//   - AddContact/RemoveContact/RetimeChannel invalidate selectively:
//     an edit to the pair (a, b) drops the DCS tables of nodes a and b
//     (a node's cost set depends only on its own incident edges) and
//     the MinCost entries of that pair, across every model. The
//     ED-function memo survives — it keys on channel parameters (β, ε),
//     not coordinates.
//   - WithModel views share the cache; the model is part of every key.
//   - Params are assumed frozen once planning starts. Mutating
//     Params.Eps is still safe (ε is part of every key); mutating the
//     physical constants mid-flight requires InvalidateCostCache.
type costCache struct {
	nodes  []nodeCache
	edMemo channel.Memo

	// Per-family hit/miss counters feed the observability layer. Purely
	// additive: no planner reads them back, so cached results (and
	// therefore schedules) are unaffected.
	minCostHits, minCostMisses atomic.Int64
	dcsHits, dcsMisses         atomic.Int64
}

// nodeCache holds the cached queries of one sender node. The maps are
// created on first store; mu guards both.
type nodeCache struct {
	mu      sync.RWMutex
	dcs     map[dcsKey][]CostLevel // treat values as read-only
	minCost map[minCostKey]float64
}

type dcsKey struct {
	t     float64
	model Model
	eps   float64
}

type minCostKey struct {
	j     tvg.NodeID
	t     float64
	model Model
	eps   float64
}

// loadDCS returns node i's cached cost set for k, counting the query as
// a hit or a miss.
func (c *costCache) loadDCS(i tvg.NodeID, k dcsKey) ([]CostLevel, bool) {
	nc := &c.nodes[i]
	nc.mu.RLock()
	v, ok := nc.dcs[k]
	nc.mu.RUnlock()
	if ok {
		c.dcsHits.Add(1)
	} else {
		c.dcsMisses.Add(1)
	}
	return v, ok
}

func (c *costCache) storeDCS(i tvg.NodeID, k dcsKey, v []CostLevel) {
	nc := &c.nodes[i]
	nc.mu.Lock()
	if nc.dcs == nil {
		nc.dcs = make(map[dcsKey][]CostLevel)
	}
	nc.dcs[k] = v
	nc.mu.Unlock()
}

// loadMinCost returns the cached MinCost from node i for k, counting the
// query as a hit or a miss.
func (c *costCache) loadMinCost(i tvg.NodeID, k minCostKey) (float64, bool) {
	nc := &c.nodes[i]
	nc.mu.RLock()
	w, ok := nc.minCost[k]
	nc.mu.RUnlock()
	if ok {
		c.minCostHits.Add(1)
	} else {
		c.minCostMisses.Add(1)
	}
	return w, ok
}

func (c *costCache) storeMinCost(i tvg.NodeID, k minCostKey, w float64) {
	nc := &c.nodes[i]
	nc.mu.Lock()
	if nc.minCost == nil {
		nc.minCost = make(map[minCostKey]float64)
	}
	nc.minCost[k] = w
	nc.mu.Unlock()
}

// invalidatePair deletes every cached result an edit to the edge (a, b)
// could change: the DCS tables of the two endpoint nodes and the pair's
// MinCost entries (both orientations, every model and ε). Entries of
// other nodes stay — their cost sets depend only on their own incident
// edges. Hit/miss counters keep accumulating across selective
// invalidations so cache-effectiveness metrics span edit sequences.
func (c *costCache) invalidatePair(a, b tvg.NodeID) {
	c.nodes[a].drop(b)
	c.nodes[b].drop(a)
}

// drop forgets the node's cost sets and its MinCost entries toward j.
func (nc *nodeCache) drop(j tvg.NodeID) {
	nc.mu.Lock()
	defer nc.mu.Unlock()
	nc.dcs = nil
	for k := range nc.minCost {
		if k.j == j {
			delete(nc.minCost, k)
		}
	}
}

func (c *costCache) reset() {
	for i := range c.nodes {
		nc := &c.nodes[i]
		nc.mu.Lock()
		nc.dcs, nc.minCost = nil, nil
		nc.mu.Unlock()
	}
	c.edMemo.Reset()
	c.minCostHits.Store(0)
	c.minCostMisses.Store(0)
	c.dcsHits.Store(0)
	c.dcsMisses.Store(0)
}

// CacheStats is a point-in-time view of the cost cache's effectiveness:
// one hit/miss/size triple per memoized query family.
type CacheStats struct {
	MinCostHits, MinCostMisses, MinCostSize int64
	DCSHits, DCSMisses, DCSSize             int64
	// EDMemo is the underlying MinCost-inversion memo shared by all
	// coordinate keys.
	EDMemo channel.MemoStats
}

// CostCacheStats returns the cache counters; ok is false when the cache
// is disabled. The numbers are individually atomic but not mutually
// consistent under concurrent queries — metrics-grade, by design.
func (g *Graph) CostCacheStats() (CacheStats, bool) {
	c := g.cache
	if c == nil {
		return CacheStats{}, false
	}
	st := CacheStats{
		MinCostHits:   c.minCostHits.Load(),
		MinCostMisses: c.minCostMisses.Load(),
		DCSHits:       c.dcsHits.Load(),
		DCSMisses:     c.dcsMisses.Load(),
		EDMemo:        c.edMemo.Stats(),
	}
	for i := range c.nodes {
		nc := &c.nodes[i]
		nc.mu.RLock()
		st.MinCostSize += int64(len(nc.minCost))
		st.DCSSize += int64(len(nc.dcs))
		nc.mu.RUnlock()
	}
	return st, true
}

// EnableCostCache attaches a memo cache for MinCost/DCS queries to the
// graph and returns the graph for chaining. Views created by WithModel
// before or after share the same cache (the model is part of every key).
// Safe for concurrent readers; idempotent.
func (g *Graph) EnableCostCache() *Graph {
	if g.cache == nil {
		g.cache = &costCache{nodes: make([]nodeCache, g.N())}
	}
	return g
}

// CostCacheEnabled reports whether the graph memoizes cost queries.
func (g *Graph) CostCacheEnabled() bool { return g.cache != nil }

// InvalidateCostCache empties the cache (for callers that mutate Params
// after planning started; edits invalidate their own pair
// automatically).
func (g *Graph) InvalidateCostCache() {
	if g.cache != nil {
		g.cache.reset()
	}
}
