package rng

import (
	"math"
	"math/rand"
	"testing"
)

// sameStream draws n values from New(seed) and from math/rand seeded
// alike, interleaving every draw kind the module uses so that both
// register indices wrap, and reports the first difference.
func sameStream(t *testing.T, seed int64, n int) {
	t.Helper()
	got, want := New(seed), rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		var g, w uint64
		switch i % 5 {
		case 0:
			g, w = uint64(got.Int63()), uint64(want.Int63())
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
		case 3:
			bound := 1 + i%1000
			g, w = uint64(got.Intn(bound)), uint64(want.Intn(bound))
		case 4:
			g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
		}
		if g != w {
			t.Fatalf("seed %d: draw %d (kind %d) = %#x, math/rand gives %#x", seed, i, i%5, g, w)
		}
	}
}

// TestSourceMatchesMathRand checks the stream against math/rand on the
// seeds its normalization treats specially and on 300 more: 0 (mapped
// to 89482311), ±1, 89482311 itself, ±(2³¹−1) (reduced to 0), values
// past 2³¹ and large negatives. 3,000 draws take both indices past the
// register length several times.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, 1<<31 + 5, 1 << 40, -(1 << 50), math.MaxInt64, math.MinInt64}
	r := rand.New(rand.NewSource(7))
	for len(seeds) < 311 {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		sameStream(t, seed, 3000)
	}
}

// TestSeedRestartsStream checks that Seed on a used generator restarts
// it on the new seed's stream, as math/rand's Seed does.
func TestSeedRestartsStream(t *testing.T) {
	got, want := New(3), rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		got.Int63()
	}
	got.Seed(11)
	want.Seed(11)
	for i := 0; i < 2000; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("draw %d after Seed(11) = %d, math/rand gives %d", i, g, w)
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(700))
	f.Add(int64(-int32max), uint16(1))
	f.Add(int64(1<<31+5), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, int(n))
	})
}

var sink float64

// BenchmarkNew times seeding plus one draw, the cost a Monte Carlo
// realization pays before its first reception.
func BenchmarkNew(b *testing.B) {
	b.Run("rng", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = New(int64(i)).Float64()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = rand.New(rand.NewSource(int64(i))).Float64()
		}
	})
}
