package tveg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/interval"
	"repro/internal/parallel"
	"repro/internal/tvg"
)

// randomGraphPair builds two identical TVEGs, one with the cost cache
// enabled, from the same seeded contact process.
func randomGraphPair(model Model) (cached, plain *Graph) {
	build := func() *Graph {
		g := New(8, interval.Interval{Start: 0, End: 1000}, 0, DefaultParams(), model)
		rng := rand.New(rand.NewSource(7))
		for c := 0; c < 40; c++ {
			i := tvg.NodeID(rng.Intn(8))
			j := tvg.NodeID(rng.Intn(8))
			if i == j {
				continue
			}
			start := rng.Float64() * 900
			g.AddContact(i, j, interval.Interval{Start: start, End: start + 50 + rng.Float64()*100},
				1+rng.Float64()*20)
		}
		return g
	}
	return build().EnableCostCache(), build()
}

func TestCostCacheAgreesWithUncached(t *testing.T) {
	for _, model := range []Model{Static, RayleighFading, RicianFading, NakagamiFading} {
		cached, plain := randomGraphPair(model)
		for i := 0; i < 8; i++ {
			for _, tt := range []float64{0, 100, 250.5, 499, 777, 950} {
				// Query twice: the second cached call must serve the memo.
				for pass := 0; pass < 2; pass++ {
					a := cached.DCS(tvg.NodeID(i), tt)
					b := plain.DCS(tvg.NodeID(i), tt)
					if len(a) != len(b) {
						t.Fatalf("%v: DCS(%d,%g) lengths %d vs %d", model, i, tt, len(a), len(b))
					}
					for k := range a {
						if a[k] != b[k] {
							t.Fatalf("%v: DCS(%d,%g)[%d] = %+v cached vs %+v plain", model, i, tt, k, a[k], b[k])
						}
					}
					for j := 0; j < 8; j++ {
						if i == j {
							continue
						}
						wa := cached.MinCost(tvg.NodeID(i), tvg.NodeID(j), tt)
						wb := plain.MinCost(tvg.NodeID(i), tvg.NodeID(j), tt)
						if wa != wb && !(isInf(wa) && isInf(wb)) {
							t.Fatalf("%v: MinCost(%d,%d,%g) = %g cached vs %g plain", model, i, j, tt, wa, wb)
						}
					}
				}
			}
		}
	}
}

func isInf(x float64) bool { return x > 1e300 }

func TestCostCacheInvalidatedByAddContact(t *testing.T) {
	g := New(2, interval.Interval{Start: 0, End: 100}, 0, DefaultParams(), Static)
	g.EnableCostCache()
	if w := g.MinCost(0, 1, 10); !isInf(w) {
		t.Fatalf("expected absent edge, got %g", w)
	}
	g.AddContact(0, 1, interval.Interval{Start: 0, End: 100}, 5)
	if w := g.MinCost(0, 1, 10); isInf(w) {
		t.Fatal("cache served stale absent-edge cost after AddContact")
	}
}

func TestCostCacheSharedAcrossModelViews(t *testing.T) {
	g := New(2, interval.Interval{Start: 0, End: 100}, 0, DefaultParams(), RayleighFading)
	g.AddContact(0, 1, interval.Interval{Start: 0, End: 100}, 5)
	g.EnableCostCache()
	view := g.WithModel(Static)
	if !view.CostCacheEnabled() {
		t.Fatal("WithModel view lost the cache")
	}
	wf := g.MinCost(0, 1, 10)
	ws := view.MinCost(0, 1, 10)
	if wf == ws {
		t.Fatalf("fading and static views returned the same cost %g — model missing from cache key?", wf)
	}
	// Static threshold equals β; compare against an uncached twin.
	plain := New(2, interval.Interval{Start: 0, End: 100}, 0, DefaultParams(), Static)
	plain.AddContact(0, 1, interval.Interval{Start: 0, End: 100}, 5)
	if want := plain.MinCost(0, 1, 10); ws != want {
		t.Fatalf("static view cost %g, want %g", ws, want)
	}
}

func TestChannelMemoMatchesDirect(t *testing.T) {
	var memo channel.Memo
	fns := []channel.EDFunction{
		channel.Step{Threshold: 3},
		channel.Rayleigh{Beta: 2.5e-18},
		channel.Rician{K: 5, Beta: 2.5e-18},
		channel.Nakagami{M: 2, Beta: 2.5e-18},
	}
	for _, f := range fns {
		for _, eps := range []float64{0.01, 0.1} {
			direct := f.MinCost(eps)
			if got := memo.MinCost(f, eps); got != direct {
				t.Errorf("%v memo MinCost(%g) = %g, want %g", f, eps, got, direct)
			}
			// second call served from the memo
			if got := memo.MinCost(f, eps); got != direct {
				t.Errorf("%v second memo MinCost(%g) = %g, want %g", f, eps, got, direct)
			}
		}
	}
	if memo.Len() != len(fns)*2 {
		t.Errorf("memo holds %d entries, want %d", memo.Len(), len(fns)*2)
	}
	memo.Reset()
	if memo.Len() != 0 {
		t.Errorf("memo holds %d entries after Reset", memo.Len())
	}
}

// TestCostCacheConcurrentQueries runs DCS and MinCost over every
// (node, point) pair from four workers at once, on a Static and a
// Rayleigh view sharing one cache, twice over. Every answer must equal
// the uncached twin's, and every query must count as exactly one hit
// or one miss. Run it under -race: the per-node tables are written
// while other workers read them.
func TestCostCacheConcurrentQueries(t *testing.T) {
	cached, plain := randomGraphPair(RayleighFading)
	var points []float64
	for p := 0.0; p < 1000; p += 12.5 {
		points = append(points, p)
	}
	n := cached.N()
	type query struct {
		model Model
		i     tvg.NodeID
		t     float64
	}
	var qs []query
	for _, m := range []Model{Static, RayleighFading} {
		for i := 0; i < n; i++ {
			for _, p := range points {
				qs = append(qs, query{m, tvg.NodeID(i), p})
			}
		}
	}
	views := map[Model][2]*Graph{
		Static:         {cached.WithModel(Static), plain.WithModel(Static)},
		RayleighFading: {cached, plain},
	}
	for pass := 0; pass < 2; pass++ {
		err := parallel.ForEach(nil, nil, 4, len(qs), func(k int) {
			q := qs[k]
			c, u := views[q.model][0], views[q.model][1]
			if a, b := c.DCS(q.i, q.t), u.DCS(q.i, q.t); !slices.Equal(a, b) {
				t.Errorf("%v: DCS(%d,%g) = %v cached, %v uncached", q.model, q.i, q.t, a, b)
			}
			for j := 0; j < n; j++ {
				if tvg.NodeID(j) == q.i {
					continue
				}
				a, b := c.MinCost(q.i, tvg.NodeID(j), q.t), u.MinCost(q.i, tvg.NodeID(j), q.t)
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%v: MinCost(%d,%d,%g) = %g cached, %g uncached", q.model, q.i, j, q.t, a, b)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st, _ := cached.CostCacheStats()
	dcsQueries, minCostQueries := int64(2*len(qs)), int64(2*len(qs)*(n-1))
	if got := st.DCSHits + st.DCSMisses; got != dcsQueries {
		t.Errorf("DCS hits+misses = %d, want %d queries", got, dcsQueries)
	}
	if got := st.MinCostHits + st.MinCostMisses; got != minCostQueries {
		t.Errorf("MinCost hits+misses = %d, want %d queries", got, minCostQueries)
	}
	// The second pass finds every key the first one stored.
	if st.DCSHits < dcsQueries/2 || st.MinCostHits < minCostQueries/2 {
		t.Errorf("hits DCS %d, MinCost %d: the second pass missed stored keys", st.DCSHits, st.MinCostHits)
	}
	if st.DCSSize != int64(len(qs)) || st.MinCostSize != int64(len(qs)*(n-1)) {
		t.Errorf("cache holds %d DCS and %d MinCost entries, want %d and %d",
			st.DCSSize, st.MinCostSize, len(qs), len(qs)*(n-1))
	}
}
