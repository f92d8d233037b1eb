package graph

import "sync"

// Arena is a typed free-list allocator for the solver hot path: the
// auxiliary-graph construction and the Steiner Dijkstra sweeps allocate
// the same handful of slice shapes (distance vectors, predecessor
// arrays, edge triples) once per solve, and an Arena lets those buffers
// be recycled across solves instead of churning the garbage collector.
//
// Ownership rules (the "arena ownership" contract in DESIGN.md):
//
//   - An Arena is single-owner: one goroutine allocates from it at a
//     time. Parallel workers take buffers before fan-out or use their
//     own pooled scratch (GetScratch), never a shared Arena.
//   - Take methods return buffers with UNDEFINED contents; callers must
//     initialize every element they read. (Returning dirty memory is
//     the point — zeroing would cost what the reuse saves.)
//   - Put hands a buffer back; the caller must not retain any alias.
//     Buffers that escape into long-lived structures (memoized
//     auxiliary-graph cores, returned solutions) are plain heap
//     allocations and are never Put.
//   - The nil *Arena is valid and degrades to plain make calls, so
//     call sites need no conditionals.
type Arena struct {
	f64 [][]float64
	i32 [][]int32

	reuses, allocs int64
}

// takeDepth bounds how many free-list entries a Take scans for a buffer
// with enough capacity before giving up and allocating. The lists are
// LIFO, so recently returned (and typically right-sized) buffers are
// found immediately; the small scan tolerates mixed sizes without
// turning Take into a search.
const takeDepth = 8

// F64 returns a float64 slice of length n with undefined contents.
func (a *Arena) F64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	for i := len(a.f64) - 1; i >= 0 && i >= len(a.f64)-takeDepth; i-- {
		if cap(a.f64[i]) >= n {
			s := a.f64[i][:n]
			a.f64 = append(a.f64[:i], a.f64[i+1:]...)
			a.reuses++
			return s
		}
	}
	a.allocs++
	return make([]float64, n)
}

// PutF64 returns a buffer to the arena. s may be nil.
func (a *Arena) PutF64(s []float64) {
	if a != nil && cap(s) > 0 {
		a.f64 = append(a.f64, s[:0])
	}
}

// I32 returns an int32 slice of length n with undefined contents.
func (a *Arena) I32(n int) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	for i := len(a.i32) - 1; i >= 0 && i >= len(a.i32)-takeDepth; i-- {
		if cap(a.i32[i]) >= n {
			s := a.i32[i][:n]
			a.i32 = append(a.i32[:i], a.i32[i+1:]...)
			a.reuses++
			return s
		}
	}
	a.allocs++
	return make([]int32, n)
}

// PutI32 returns a buffer to the arena. s may be nil.
func (a *Arena) PutI32(s []int32) {
	if a != nil && cap(s) > 0 {
		a.i32 = append(a.i32, s[:0])
	}
}

// ArenaStats counts buffer requests served from the free lists (Reuses)
// versus fresh heap allocations (Allocs) since the arena was acquired.
type ArenaStats struct {
	Reuses, Allocs int64
}

// Stats returns the arena's reuse counters (zero on nil).
func (a *Arena) Stats() ArenaStats {
	if a == nil {
		return ArenaStats{}
	}
	return ArenaStats{Reuses: a.reuses, Allocs: a.allocs}
}

var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena takes an arena from the package pool with zeroed counters;
// its free lists carry buffers returned by earlier PutArena calls, so
// steady-state solves allocate almost nothing.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.reuses, a.allocs = 0, 0
	return a
}

// PutArena returns an arena (and every buffer on its free lists) to the
// package pool. The caller must not use the arena, or any buffer not
// already Put back, afterwards.
func PutArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}
