// Package nondeterm is the golden fixture for the nondeterm analyzer:
// wall clocks, the unseeded global math/rand source, and raw
// goroutines.
package nondeterm

import (
	"math/rand"
	"sync"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want "nondeterm: time.Now reads the wall clock"
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "nondeterm: time.Since reads the wall clock"
}

func globalDraw() float64 {
	return rand.Float64() // want "nondeterm: rand.Float64 draws from the unseeded global source"
}

func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "nondeterm: rand.Shuffle draws from the unseeded global source"
}

// seededDraw is the sanctioned pattern: methods on an explicitly
// seeded source are deterministic.
func seededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// fanOut collects results in goroutine-completion order — the exact
// shape parallel.ForEach exists to replace.
func fanOut(xs []float64) float64 {
	var wg sync.WaitGroup
	out := make(chan float64, len(xs))
	for _, x := range xs {
		wg.Add(1)
		go func(v float64) { // want "nondeterm: raw goroutine in a solver package"
			defer wg.Done()
			out <- v * v
		}(x)
	}
	wg.Wait()
	close(out)
	var sum float64
	for v := range out {
		sum += v
	}
	return sum
}

// suppressed pins the inline suppression syntax.
func suppressed() time.Time {
	//tmedbvet:ignore nondeterm fixture pins the suppression syntax; value never reaches solver output
	return time.Now()
}
