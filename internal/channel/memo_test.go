package channel

import (
	"sync"
	"testing"
)

func TestMemoStatsHitMiss(t *testing.T) {
	var m Memo
	ed := Rayleigh{Beta: 1e-15}
	want := ed.MinCost(0.01)
	if got := m.MinCost(ed, 0.01); got != want {
		t.Fatalf("first MinCost = %g, want %g", got, want)
	}
	if got := m.MinCost(ed, 0.01); got != want {
		t.Fatalf("memoized MinCost = %g, want %g", got, want)
	}
	m.MinCost(ed, 0.02) // different eps: its own entry
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 size=2", st)
	}
}

func TestMemoStatsCountNonComparableAsMiss(t *testing.T) {
	var m Memo
	// A pointer-typed ED-function is comparable (pointer identity), but a
	// nil interface short-circuits before the type check only via f==nil;
	// exercise the non-comparable branch with a func-backed implementation.
	m.MinCost(funcED(func(eps float64) float64 { return eps * 2 }), 0.5)
	st := m.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Size != 0 {
		t.Fatalf("non-memoizable call stats = %+v, want one uncached miss", st)
	}
}

// funcED adapts a func to EDFunction; func types are non-comparable, so
// the memo must fall through to direct computation.
type funcED func(eps float64) float64

func (f funcED) FailureProb(w float64) float64 { return 1 }
func (f funcED) MinCost(eps float64) float64   { return f(eps) }

func TestMemoStatsConcurrent(t *testing.T) {
	var m Memo
	eds := []EDFunction{
		Rayleigh{Beta: 1e-15},
		Rayleigh{Beta: 2e-15},
		Rayleigh{Beta: 3e-15},
		Rayleigh{Beta: 4e-15},
	}
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ed := eds[(w+i)%len(eds)]
				got := m.MinCost(ed, 0.01)
				if want := ed.MinCost(0.01); got != want {
					t.Errorf("concurrent MinCost = %g, want %g", got, want)
					return
				}
				if i%100 == 99 {
					m.Stats() // reads race-free against writes
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*iters)
	}
	// Racing first computations may store the same key more than once,
	// but the table can never exceed the distinct-key count, and after
	// this many iterations every key must be present.
	if st.Size != int64(len(eds)) {
		t.Fatalf("size = %d, want %d", st.Size, len(eds))
	}
	if st.Misses < int64(len(eds)) || st.Misses >= workers*iters {
		t.Fatalf("misses = %d outside (%d, %d)", st.Misses, len(eds), workers*iters)
	}
}
