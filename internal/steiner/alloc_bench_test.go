package steiner

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
)

// steadyStateInstance is the instance the steady-state benchmark and
// the allocation tests below solve: 400 vertices, 2,400 random edges
// and 12 terminals.
func steadyStateInstance() (*graph.CSR, []int) {
	return randomInstance(rand.New(rand.NewSource(7)), 400, 2400, 12)
}

// BenchmarkRecursiveGreedySteadyState measures the per-solve cost of a
// warm solver: the first RecursiveGreedy call fills the fwd/bwd
// Dijkstra caches and grows the scan buffers, every timed iteration
// re-solves against them. This is the serving-tier shape (one solver
// per graph epoch, many candidate evaluations) that the hotalloc
// contract protects: steady-state B/op here is scan-loop garbage, not
// cache fills. It also reports the level-2 scan's work counters per
// solve: candidate sorts (sorted/op) and vertices skipped by a floor or
// a tier bound (pruned/op).
func BenchmarkRecursiveGreedySteadyState(b *testing.B) {
	g, terms := steadyStateInstance()
	rec := obs.New()
	s := NewSolver(g).SetObs(rec)
	defer s.Release()
	if _, err := s.RecursiveGreedy(0, terms, 2); err != nil {
		b.Fatal(err)
	}
	sorted, pruned := rec.Counter("steiner.level2.sorted"), rec.Counter("steiner.level2.pruned")
	sorted0, pruned0 := sorted.Value(), pruned.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RecursiveGreedy(0, terms, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sorted.Value()-sorted0)/float64(b.N), "sorted/op")
	b.ReportMetric(float64(pruned.Value()-pruned0)/float64(b.N), "pruned/op")
}

// TestRecursiveGreedySteadyStateAllocs holds the allocations of one
// warm level-2 re-solve of the steady-state benchmark's instance under
// a ceiling. go1.24.0 counts 27, all per solve or per scan: the growth
// of the solution's edge slices, prune's buffers, the scan's chunk
// ranges and the coverage lists. The ceiling is twice that, for Go
// releases that grow slices differently. The level-2 scan visits
// thousands of candidates per solve, so a single allocation per
// candidate overshoots the ceiling many times over. A plain make
// bypasses the arena and never shows in graph.arena.allocs; it shows
// here.
func TestRecursiveGreedySteadyStateAllocs(t *testing.T) {
	const ceiling = 54
	g, terms := steadyStateInstance()
	s := NewSolver(g)
	defer s.Release()
	if _, err := s.RecursiveGreedy(0, terms, 2); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(5, func() {
		if _, err := s.RecursiveGreedy(0, terms, 2); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Errorf("warm level-2 re-solve: %.0f allocs/run, budget %d; something allocates per candidate", got, ceiling)
	}
}

// TestReleaseFeedsTheNextSolver runs the solver lifecycle repeatedly on
// one instance and requires some cycle after the first to take every
// buffer from the arena's free lists: Release must hand the fwd/bwd
// Dijkstra buffers back for the next NewSolver to reuse. One clean
// cycle is enough, and all cannot be required: under -race sync.Pool
// drops a random share of Puts, and a GC can empty the pool.
func TestReleaseFeedsTheNextSolver(t *testing.T) {
	g, terms := steadyStateInstance()
	var allocs []int64
	for c := 0; c < 20; c++ {
		rec := obs.New()
		s := NewSolver(g).SetObs(rec)
		if _, err := s.RecursiveGreedy(0, terms, 2); err != nil {
			t.Fatal(err)
		}
		s.Release()
		allocs = append(allocs, rec.Counter("graph.arena.allocs").Value())
		if c > 0 && allocs[c] == 0 {
			return
		}
	}
	t.Errorf("no cycle after the first reused all its arena buffers; graph.arena.allocs per cycle: %v", allocs)
}
