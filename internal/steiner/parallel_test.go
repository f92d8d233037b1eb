package steiner

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// randomDAGish builds a seeded digraph with forward edges (plus a few
// back edges) and varied weights — large enough that the level-2 scan
// actually splits across chunks.
func randomDAGish(rng *rand.Rand, n, m int) *graph.CSR {
	var el graph.EdgeList
	// Spine guarantees reachability of every vertex from 0.
	for v := 1; v < n; v++ {
		el.Add(int32(rng.Intn(v)), int32(v), 1+rng.Float64()*9)
	}
	for k := 0; k < m; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		el.Add(int32(u), int32(v), 0.5+rng.Float64()*20)
	}
	return csrOf(n, &el)
}

// TestRecursiveGreedyParallelMatchesSerial is the solver-level
// determinism contract: the chunked candidate scan must reproduce the
// serial scan bit for bit, for every worker count, including pools
// larger than the vertex count.
func TestRecursiveGreedyParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g := randomDAGish(rng, 50, 220)
		terms := []int{7, 13, 21, 34, 49}
		ser, serErr := NewSolver(g).SetWorkers(1).RecursiveGreedy(0, terms, 2)
		for _, w := range []int{2, 3, 8, 64} {
			par, parErr := NewSolver(g).SetWorkers(w).RecursiveGreedy(0, terms, 2)
			if (serErr == nil) != (parErr == nil) {
				t.Fatalf("trial %d workers=%d: error mismatch: serial %v, parallel %v", trial, w, serErr, parErr)
			}
			if serErr != nil {
				continue
			}
			if !reflect.DeepEqual(ser.Edges(), par.Edges()) {
				t.Fatalf("trial %d workers=%d: edge sets differ:\nserial   %v\nparallel %v",
					trial, w, ser.Edges(), par.Edges())
			}
		}
	}
}

// TestShortestPathTreeUnaffectedByWorkers pins the SPT heuristic too:
// it shares the solver's distance caches with the parallel scan.
func TestShortestPathTreeUnaffectedByWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomDAGish(rng, 40, 160)
	terms := []int{5, 17, 29, 39}
	ser, err := NewSolver(g).SetWorkers(1).ShortestPathTree(0, terms)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSolver(g).SetWorkers(8).ShortestPathTree(0, terms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ser.Edges(), par.Edges()) {
		t.Fatalf("edge sets differ:\nserial   %v\nparallel %v", ser.Edges(), par.Edges())
	}
}
