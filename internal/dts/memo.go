package dts

import (
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/tvg"
)

// The DTS memo caches built discrete time sets per (graph identity,
// window, construction options). The DTS depends only on the presence
// structure — never on the channel model — so one memoized DTS serves
// every planner view of a graph: the static planning view, the fading
// view of the FR family, every algorithm of a comparison sweep, the gap
// certificate's second pipeline run and every rung of the degradation
// ladder. It is the one way a built DTS is shared.
//
// Invalidation is by key, not by purge: the key carries
// tvg.Graph.Version(), so mutating a graph simply stops matching the
// old entries, which age out of the LRU. Cached DTS values are shared
// by pointer and must never be mutated — a DTS is read-only after
// Build, which downstream consumers (auxgraph, planners) already rely
// on. Sharing the pointer is itself load-bearing: the auxiliary-graph
// memo keys on the *DTS identity, so a DTS memo hit is what makes an
// auxgraph memo hit possible.

// memoKey identifies a DTS build by everything that affects its result.
// Workers/Obs/Cancel are deliberately absent: a completed Build is
// byte-identical for every value of those.
//
// Graph identity is the process-unique tvg.Graph.ID(), NOT the *Graph
// pointer. A pointer key is unsound in a long-running process: once an
// entry's graph is garbage-collected, the allocator can recycle its
// address for a brand-new graph — also at version 0 — and a lookup for
// the new graph would silently return the dead graph's DTS. IDs are
// monotonic and never reused, so that collision cannot happen (see
// TestMemoNoAliasingAcrossIdentityReuse for the old shape).
type memoKey struct {
	gid      uint64
	version  uint64
	t0       float64
	deadline float64
	noPrune  bool
}

const memoCapacity = 32

var (
	memo                 = lru.New[memoKey, *DTS](memoCapacity)
	memoHits, memoMisses atomic.Int64
)

func keyFor(g *tvg.Graph, t0, deadline float64, opts Options) memoKey {
	return memoKey{gid: g.ID(), version: g.Version(), t0: t0, deadline: deadline, noPrune: opts.NoPrune}
}

// MemoStats returns the process-wide memo hit/miss counters.
func MemoStats() (hits, misses int64) {
	return memoHits.Load(), memoMisses.Load()
}

// PurgeMemo empties the process-wide DTS memo (benchmarks isolating
// cold-build cost call this between runs).
func PurgeMemo() { memo.Purge() }
