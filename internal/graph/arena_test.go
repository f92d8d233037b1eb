package graph

import (
	"math/rand"
	"sync"
	"testing"
)

func TestArenaReuse(t *testing.T) {
	// A fresh arena: one from the pool may carry buffers an earlier test
	// put back, which would serve the first request below.
	a := new(Arena)
	s1 := a.F64(100)
	a.PutF64(s1)
	s2 := a.F64(80)
	if &s1[0] != &s2[0] {
		t.Fatalf("expected the returned buffer to be recycled")
	}
	if st := a.Stats(); st.Reuses != 1 {
		t.Fatalf("stats = %+v, want 1 reuse", st)
	}
	// A request larger than anything on the free list allocates fresh.
	a.PutF64(s2)
	s3 := a.F64(500)
	if cap(s3) < 500 {
		t.Fatalf("cap %d < 500", cap(s3))
	}
	if st := a.Stats(); st.Allocs < 2 {
		t.Fatalf("stats = %+v, want >= 2 allocs (initial + oversized)", st)
	}
}

func TestNilArenaDegradesToMake(t *testing.T) {
	var a *Arena
	if got := a.F64(5); len(got) != 5 {
		t.Fatalf("nil arena F64 len %d", len(got))
	}
	if got := a.I32(5); len(got) != 5 {
		t.Fatalf("nil arena I32 len %d", len(got))
	}
	a.PutF64(nil)
	a.PutI32(nil)
	if st := a.Stats(); st != (ArenaStats{}) {
		t.Fatalf("nil arena stats %+v", st)
	}
}

// TestArenaAliasing is the -race aliasing test: arenas and scratches
// taken from the package pools by concurrent workers must hand out
// disjoint memory, and recycled buffers must carry no cross-goroutine
// hazard. Each worker runs Dijkstras on its own graph into
// arena-provided buffers and verifies its results against the reference
// implementation, so any buffer shared between two workers shows up as
// both a race report and a wrong distance.
func TestArenaAliasing(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			a := GetArena()
			defer PutArena(a)
			sc := GetScratch()
			defer PutScratch(sc)
			for iter := 0; iter < 30; iter++ {
				n := 2 + rng.Intn(30)
				d := randomLevelDigraph(rng, n, rng.Intn(5*n))
				c := FromDigraph(d)
				src := rng.Intn(n)
				dist := a.F64(n)
				prev := a.I32(n)
				c.ShortestPathsInto(src, dist, prev, sc)
				wantDist, wantPrev := d.ShortestPaths(src)
				for v := 0; v < n; v++ {
					// Inf == Inf holds, so plain inequality is a real mismatch.
					//tmedbvet:ignore floateq aliasing check wants bitwise equality with the reference run
					if dist[v] != wantDist[v] {
						t.Errorf("worker %d iter %d: dist[%d] = %v want %v", seed, iter, v, dist[v], wantDist[v])
						return
					}
					if int(prev[v]) != wantPrev[v] {
						t.Errorf("worker %d iter %d: prev[%d] = %d want %d", seed, iter, v, prev[v], wantPrev[v])
						return
					}
				}
				a.PutF64(dist)
				a.PutI32(prev)
			}
		}(int64(w))
	}
	wg.Wait()
}
