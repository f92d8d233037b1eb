package channel

import (
	"reflect"
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe memoization table for MinCost inversions.
// MinCost is a pure function of the ED-function value and eps, but for
// the Rician and Nakagami models it costs an exponential search plus up
// to 200 bisection steps over special functions — and the auxiliary-graph
// construction, the greedy backbones, and the Steiner search re-query the
// same ψ costs at the same DTS points over and over. The memo turns every
// repeat into one map lookup without changing a single returned bit.
//
// The zero value is ready to use and safe for concurrent use by multiple
// goroutines. Entries are only ever computed from their key, so a racing
// double-compute stores the same value twice — determinism is unaffected
// by scheduling.
type Memo struct {
	m sync.Map // memoKey -> float64
	// hits/misses feed the observability layer's cache metrics. A
	// non-memoizable (non-comparable or nil) ED-function counts as a
	// miss: the caller paid the full inversion either way.
	hits   atomic.Int64
	misses atomic.Int64
}

// MemoStats is a point-in-time view of the memo's effectiveness.
type MemoStats struct {
	// Hits and Misses count MinCost calls answered from / absent from
	// the table since construction.
	Hits, Misses int64
	// Size is the current number of memoized entries.
	Size int64
}

// Stats returns the memo's hit/miss/size counters. Safe for concurrent
// use with MinCost; the three numbers are individually atomic but not
// mutually consistent under concurrent writes (good enough for metrics,
// which is all this feeds).
func (c *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Size:   int64(c.Len()),
	}
}

type memoKey struct {
	f   EDFunction
	eps float64
}

// MinCost returns f.MinCost(eps), memoized when the concrete ED-function
// type is comparable (all models in this package are value structs, so
// they are). Non-comparable implementations fall through to a direct
// computation rather than panicking on the map key.
func (c *Memo) MinCost(f EDFunction, eps float64) float64 {
	if f == nil || !reflect.TypeOf(f).Comparable() {
		c.misses.Add(1)
		return f.MinCost(eps)
	}
	k := memoKey{f, eps}
	if v, ok := c.m.Load(k); ok {
		c.hits.Add(1)
		return v.(float64)
	}
	c.misses.Add(1)
	v := f.MinCost(eps)
	c.m.Store(k, v)
	return v
}

// Len reports the number of memoized entries (for tests and stats).
func (c *Memo) Len() int {
	n := 0
	c.m.Range(func(_, _ any) bool { n++; return true })
	return n
}
