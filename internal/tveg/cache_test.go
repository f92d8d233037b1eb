package tveg

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/channel"
	"repro/internal/dts"
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
	if _, ok := view.CostCacheStats(); !ok {
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
}

// TestCostCacheConcurrentQueries runs DCS and MinCost over every
// (node, point) pair from four workers at once, on a Static and a
// Rayleigh view sharing one cache, twice over. Every answer must equal
// the uncached twin's, every query must count as exactly one hit or one
// miss, and the cache must hold one filled piece per distinct (model,
// node, piece) the queries landed in. Run it under -race: the timelines
// are built and their slots filled while other workers read them.
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
	// The second pass finds every piece the first one filled.
	if st.DCSHits < dcsQueries/2 || st.MinCostHits < minCostQueries/2 {
		t.Errorf("hits DCS %d, MinCost %d: the second pass missed filled pieces", st.DCSHits, st.MinCostHits)
	}
	type piece struct {
		model Model
		i     tvg.NodeID
		p     int
	}
	touched := make(map[piece]bool)
	for _, q := range qs {
		touched[piece{q.model, q.i, cached.cache.nodes[q.i].Load().piece(q.t)}] = true
	}
	if st.DCSSize != int64(len(touched)) || st.MinCostSize != 0 {
		t.Errorf("cache holds %d filled pieces and %d MinCost entries, want %d and 0",
			st.DCSSize, st.MinCostSize, len(touched))
	}
	// Each query landing in a filled piece is a hit, so the misses are
	// the fills: at least one per piece, more only where workers raced.
	if misses := st.DCSMisses + st.MinCostMisses; misses < int64(len(touched)) {
		t.Errorf("%d misses for %d filled pieces", misses, len(touched))
	}
}

// allModels lists every channel model.
var allModels = []Model{Static, RayleighFading, RicianFading, NakagamiFading}

// randomEdit applies one seeded AddContact, RemoveContact or
// RetimeChannel edit to g, aiming removals and retimes at real contacts.
func randomEdit(rng *rand.Rand, g *Graph) {
	n := g.N()
	i := tvg.NodeID(rng.Intn(n))
	j := tvg.NodeID((int(i) + 1 + rng.Intn(n-1)) % n)
	segs := g.Segments(i, j)
	switch op := rng.Intn(3); {
	case op == 0 || len(segs) == 0:
		start := rng.Float64() * 900
		g.AddContact(i, j, interval.Interval{Start: start, End: contactEnd(rng, start, g.Tau())}, 1+rng.Float64()*20)
	case op == 1:
		s := segs[rng.Intn(len(segs))].Iv
		a := s.Start + rng.Float64()*(s.End-s.Start)
		g.RemoveContact(i, j, interval.Interval{Start: a, End: a + rng.Float64()*30})
	default:
		from := segs[rng.Intn(len(segs))].Iv
		start := rng.Float64() * 900
		// Retimes onto another contact of the pair fail and leave the
		// graph as it was; the next round tries again.
		g.RetimeChannel(i, j, from, interval.Interval{Start: start, End: start + from.End - from.Start})
	}
}

// contactEnd draws the end of a contact starting at start. For τ > 0
// it prefers an end at which ρ_τ's test t+τ < end flips an ulp away
// from the rounded end−τ (a few draws in ten thousand at random), so
// most contacts put a piece start where a bound computed as end−τ
// would be wrong.
func contactEnd(rng *rand.Rand, start, tau float64) float64 {
	end := start + 5 + rng.Float64()*80
	for k := 0; tau > 0 && k < 4000; k++ {
		c := end - tau
		if c+tau < end || !(math.Nextafter(c, math.Inf(-1))+tau < end) {
			break
		}
		end = start + 5 + rng.Float64()*80
	}
	return end
}

// TestTimelineMatchesUncached is the differential check of the
// cost-set timelines. On seeded graphs with τ ∈ {0, 0.3, 1.1} under
// every channel model, cached DCS and MinCost must equal dcsUncached
// and minCostUncached bit for bit at every DTS point, every piece start
// and one ulp either side of each start; between query rounds, seeded
// AddContact, RemoveContact and RetimeChannel edits change the graph.
// A piece bound that disagreed with ρ_τ's own test t+τ < End by an ulp
// would put a point in the wrong piece and fail here.
func TestTimelineMatchesUncached(t *testing.T) {
	const n = 8
	for ti, tau := range []float64{0, 0.3, 1.1} {
		for _, model := range allModels {
			rng := rand.New(rand.NewSource(int64(31*ti + int(model) + 1)))
			g := New(n, interval.Interval{Start: 0, End: 1000}, tau, DefaultParams(), model).EnableCostCache()
			for c := 0; c < 40; c++ {
				randomEdit(rng, g)
			}
			for round := 0; round < 4; round++ {
				for e := 0; round > 0 && e < 6; e++ {
					randomEdit(rng, g)
				}
				d, err := dts.Build(g.Graph, 0, 1000, dts.Options{NoPrune: true})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					node := tvg.NodeID(i)
					// A node's first query builds its timeline; read the
					// starts after it.
					g.DCS(node, 0)
					pts := slices.Clone(d.Points[i])
					for _, s := range g.cache.nodes[i].Load().starts {
						pts = append(pts, math.Nextafter(s, math.Inf(-1)), s, math.Nextafter(s, math.Inf(1)))
					}
					for _, p := range pts {
						checkCostSetAt(t, g, node, p)
					}
				}
			}
		}
	}
}

// checkCostSetAt compares g's cached DCS and MinCost of node i at x
// with the uncached computations, bit for bit.
func checkCostSetAt(t *testing.T, g *Graph, i tvg.NodeID, x float64) {
	t.Helper()
	got, want := g.DCS(i, x), g.dcsUncached(i, x)
	if len(got) != len(want) {
		t.Fatalf("τ=%g %v: DCS(%d, %v) = %v, uncached %v", g.Tau(), g.Model, i, x, got, want)
	}
	for k := range got {
		if got[k].Node != want[k].Node || math.Float64bits(got[k].W) != math.Float64bits(want[k].W) {
			t.Fatalf("τ=%g %v: DCS(%d, %v) = %v, uncached %v", g.Tau(), g.Model, i, x, got, want)
		}
	}
	for j := 0; j < g.N(); j++ {
		a, b := g.MinCost(i, tvg.NodeID(j), x), g.minCostUncached(i, tvg.NodeID(j), x)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("τ=%g %v: MinCost(%d, %d, %v) = %v, uncached %v", g.Tau(), g.Model, i, j, x, a, b)
		}
	}
}

// TestTimelineAnswersOtherParamsUncached pins ε safety: a WithModel
// view with a different ε shares the timelines but must get the
// uncached answer under its own ε, not a piece filled under the
// graph's, and it fills no piece.
func TestTimelineAnswersOtherParamsUncached(t *testing.T) {
	cached, _ := randomGraphPair(RayleighFading)
	own := make([][]CostLevel, cached.N())
	for i := range own {
		own[i] = cached.DCS(tvg.NodeID(i), 500)
	}
	before, _ := cached.CostCacheStats()
	view := cached.WithModel(RayleighFading)
	view.Params.Eps = 0.1
	nonEmpty := false
	for i := 0; i < cached.N(); i++ {
		node := tvg.NodeID(i)
		got, want := view.DCS(node, 500), view.dcsUncached(node, 500)
		if !slices.Equal(got, want) {
			t.Fatalf("ε=0.1 view: DCS(%d) = %v, uncached %v", i, got, want)
		}
		if len(want) > 0 {
			nonEmpty = true
			if slices.Equal(got, own[i]) {
				t.Fatalf("ε=0.1 view served the ε=0.01 cost set %v", got)
			}
			j := want[0].Node
			if a, b := view.MinCost(node, j, 500), view.minCostUncached(node, j, 500); a != b {
				t.Fatalf("ε=0.1 view: MinCost(%d,%d) = %g, uncached %g", i, j, a, b)
			}
		}
	}
	if !nonEmpty {
		t.Fatal("no node has a neighbour at t=500; pick another time")
	}
	after, _ := cached.CostCacheStats()
	if after.DCSSize != before.DCSSize || after.DCSHits != before.DCSHits {
		t.Errorf("the ε=0.1 view filled pieces (%d -> %d) or hit them (hits %d -> %d)",
			before.DCSSize, after.DCSSize, before.DCSHits, after.DCSHits)
	}
	for i := range own {
		if got := cached.DCS(tvg.NodeID(i), 500); !slices.Equal(got, own[i]) {
			t.Fatalf("graph's DCS(%d) after the view's queries = %v, want %v", i, got, own[i])
		}
	}
}

// TestTimelineWarmQueriesAllocateNothing: once a piece is filled, DCS
// and MinCost in it are a binary search and an atomic load.
func TestTimelineWarmQueriesAllocateNothing(t *testing.T) {
	for _, model := range allModels {
		cached, _ := randomGraphPair(model)
		var i tvg.NodeID
		var at float64
		var j tvg.NodeID
		found := false
		for p := 0.0; p < 1000 && !found; p += 12.5 {
			for k := 0; k < cached.N() && !found; k++ {
				if lv := cached.DCS(tvg.NodeID(k), p); len(lv) > 0 {
					i, at, j, found = tvg.NodeID(k), p, lv[len(lv)-1].Node, true
				}
			}
		}
		if !found {
			t.Fatalf("%v: no node has a neighbour", model)
		}
		if a := testing.AllocsPerRun(100, func() { cached.DCS(i, at) }); a != 0 {
			t.Errorf("%v: warm DCS allocates %v times", model, a)
		}
		if a := testing.AllocsPerRun(100, func() { cached.MinCost(i, j, at) }); a != 0 {
			t.Errorf("%v: warm MinCost allocates %v times", model, a)
		}
	}
}
