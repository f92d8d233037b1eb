package tvg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/interval"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

// lineGraph builds the example of Fig. 1/2 style: a 4-node graph with
// hand-placed contacts over [0, 100], τ = 1.
func lineGraph() *Graph {
	g := New(4, iv(0, 100), 1)
	g.AddContact(0, 1, iv(10, 30), 1)
	g.AddContact(0, 1, iv(60, 70), 1)
	g.AddContact(1, 2, iv(25, 45), 1)
	g.AddContact(2, 3, iv(40, 55), 1)
	g.AddContact(0, 3, iv(80, 90), 1)
	return g
}

func TestNewPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, iv(0, 1), 0) },
		func() { New(3, iv(0, 1), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAddContactSelfLoopPanics(t *testing.T) {
	g := New(2, iv(0, 10), 0)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for self loop")
		}
	}()
	g.AddContact(1, 1, iv(0, 5), 1)
}

func TestRho(t *testing.T) {
	g := lineGraph()
	if !g.Rho(0, 1, 15) || !g.Rho(1, 0, 15) {
		t.Error("edge (0,1) present at 15, symmetric")
	}
	if g.Rho(0, 1, 45) {
		t.Error("edge (0,1) absent at 45")
	}
	if g.Rho(0, 2, 15) {
		t.Error("edge (0,2) never present")
	}
}

func TestRhoTau(t *testing.T) {
	g := lineGraph()
	// contact [10,30), τ=1: the window must end strictly before 30
	if !g.RhoTau(0, 1, 28.9) {
		t.Error("ρ_τ at 28.9 should hold ([28.9,29.9] ⊂ [10,30))")
	}
	if g.RhoTau(0, 1, 29) {
		t.Error("ρ_τ at 29 should fail: [29,30] reaches the excluded endpoint")
	}
	if g.RhoTau(0, 1, 29.5) {
		t.Error("ρ_τ at 29.5 should fail ([29.5,30.5] ⊄ [10,30))")
	}
	if !g.RhoTau(0, 1, 10) {
		t.Error("ρ_τ at contact start should hold")
	}
}

// neighborsAt returns the nodes adjacent to i at time t (in the ρ_τ
// sense), sorted: the oracle of the adjacent-partition property test.
func neighborsAt(g *Graph, i NodeID, t float64) []NodeID {
	var out []NodeID
	for _, j := range g.EverNeighbors(i) {
		if g.RhoTau(i, j, t) {
			out = append(out, j)
		}
	}
	return out
}

func TestNeighborsAt(t *testing.T) {
	g := lineGraph()
	got := neighborsAt(g, 1, 27)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("neighborsAt(1, 27) = %v, want [0 2]", got)
	}
	got = neighborsAt(g, 1, 50)
	if len(got) != 0 {
		t.Errorf("neighborsAt(1, 50) = %v, want []", got)
	}
}

// TestInRangeMatchesRhoTau checks the slot walk against the pairwise
// ρ_τ oracle at every presence boundary, one ulp either side of it and
// at its τ flip point End-τ, before and after seeded edits that add,
// clip and delete presence, including removals that empty a pair and
// drop its slot. InRange must also keep what dst already held.
func TestInRangeMatchesRhoTau(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	slotsDropped := 0
	for _, tau := range []float64{0, 0.5, 7} {
		for trial := 0; trial < 10; trial++ {
			g := randomGraph(r, 7, tau)
			check := func(stage string) {
				for i := NodeID(0); i < NodeID(g.N()); i++ {
					var ts []float64
					for _, j := range g.EverNeighbors(i) {
						for _, p := range g.Presence(i, j).Intervals() {
							for _, x := range []float64{p.Start, p.End, p.End - tau} {
								ts = append(ts, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
							}
						}
					}
					for _, x := range ts {
						got := g.InRange([]NodeID{-1}, i, x)
						want := append([]NodeID{-1}, neighborsAt(g, i, x)...)
						if !slices.Equal(got, want) {
							t.Fatalf("τ=%g trial %d %s: InRange(%d, %v) = %v, want %v", tau, trial, stage, i, x, got[1:], want[1:])
						}
					}
				}
			}
			check("built")
			for e := 0; e < 30; e++ {
				i, j := NodeID(r.Intn(7)), NodeID(r.Intn(7))
				if i == j {
					continue
				}
				start := r.Float64() * 900
				switch r.Intn(3) {
				case 0:
					g.AddContact(i, j, iv(start, start+5+r.Float64()*60), 1)
				case 1:
					g.RemoveContact(i, j, iv(start, start+5+r.Float64()*60))
				default:
					if g.RemoveContact(i, j, g.Span()) {
						slotsDropped++
					}
				}
			}
			check("edited")
		}
	}
	if slotsDropped == 0 {
		t.Fatal("no edit emptied a pair")
	}
}

func TestDegreeAndAverageDegree(t *testing.T) {
	g := lineGraph()
	if d := g.DegreeAt(1, 27); d != 2 {
		t.Errorf("DegreeAt(1,27) = %d, want 2", d)
	}
	// At t=27: edges (0,1) and (1,2) are up; degrees 1,2,1,0 → avg 1.
	if avg := g.AverageDegreeAt(27); avg != 1 {
		t.Errorf("AverageDegreeAt(27) = %g, want 1", avg)
	}
}

func TestEverNeighbors(t *testing.T) {
	g := lineGraph()
	got := g.EverNeighbors(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("EverNeighbors(0) = %v, want [1 3]", got)
	}
}

func TestPairAdjacentPartition(t *testing.T) {
	g := lineGraph()
	// presence (0,1): [10,30)∪[60,70); eroded by τ=1: [10,29)∪[60,69)
	p := g.PairAdjacentPartition(0, 1)
	want := []float64{0, 10, 29, 60, 69, 100}
	pts := p.Points()
	if len(pts) != len(want) {
		t.Fatalf("partition = %v, want %v", pts, want)
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Errorf("pts[%d] = %g, want %g", i, pts[i], want[i])
		}
	}
}

func TestAdjacentPartitionCombines(t *testing.T) {
	g := lineGraph()
	p := g.AdjacentPartition(0)
	// breakpoints from (0,1) eroded: 10,29,60,69; from (0,3): 80,89
	want := []float64{0, 10, 29, 60, 69, 80, 89, 100}
	pts := p.Points()
	if len(pts) != len(want) {
		t.Fatalf("partition = %v, want %v", pts, want)
	}
	for i := range want {
		if math.Abs(pts[i]-want[i]) > 1e-9 {
			t.Errorf("pts[%d] = %g, want %g", i, pts[i], want[i])
		}
	}
}

// TestChangePoints: overlapping contacts of one pair merge into one
// presence interval, but the distance changes at their boundaries
// inside it; those boundaries split P^ad. Boundaries outside the eroded
// presence add nothing, so a pair whose contacts neither overlap nor
// abut yields only the eroded presence's starts and ends.
func TestChangePoints(t *testing.T) {
	g := New(3, iv(0, 100), 1)
	g.AddContact(0, 1, iv(10, 50), 10)
	g.AddContact(0, 1, iv(30, 80), 2)
	g.AddContact(1, 2, iv(20, 40), 5)
	g.AddContact(1, 2, iv(60, 70), 7)
	for _, c := range []struct {
		i, j NodeID
		want []float64
	}{
		{0, 1, []float64{10, 79, 50, 30}}, // eroded [10,79), then contact bounds inside it
		{1, 0, []float64{10, 79, 50, 30}},
		{1, 2, []float64{20, 39, 60, 69}}, // contact ends 40 and 70 lie outside the eroded set
		{0, 2, nil},
	} {
		if got := g.ChangePoints(c.i, c.j, nil); !slices.Equal(got, c.want) {
			t.Errorf("ChangePoints(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
	if got, want := g.AdjacentPartition(1).Points(), []float64{0, 10, 20, 30, 39, 50, 60, 69, 79, 100}; !slices.Equal(got, want) {
		t.Errorf("AdjacentPartition(1) = %v, want %v", got, want)
	}
}

func TestAdjacentPartitionsAll(t *testing.T) {
	g := lineGraph()
	all := g.AdjacentPartitions()
	if len(all) != 4 {
		t.Fatalf("got %d partitions, want 4", len(all))
	}
	for i, p := range all {
		s, e := p.Span()
		if s != 0 || e != 100 {
			t.Errorf("partition %d span = (%g,%g), want (0,100)", i, s, e)
		}
	}
}

func TestEarliestArrivals(t *testing.T) {
	g := lineGraph()
	arr := g.EarliestArrivals(0, 0)
	// 0→1 starts at 10, arrives 11
	if arr[1] != 11 {
		t.Errorf("arr[1] = %g, want 11", arr[1])
	}
	// 1→2 contact [25,45): earliest ≥11 is 25, arrival 26
	if arr[2] != 26 {
		t.Errorf("arr[2] = %g, want 26", arr[2])
	}
	// 2→3 contact [40,55): departs 40, arrives 41 — beats 0→3 at 80
	if arr[3] != 41 {
		t.Errorf("arr[3] = %g, want 41", arr[3])
	}
	if arr[0] != 0 {
		t.Errorf("arr[0] = %g, want 0 (source)", arr[0])
	}
}

func TestEarliestArrivalsLateStart(t *testing.T) {
	g := lineGraph()
	arr := g.EarliestArrivals(0, 50)
	// 0→1 contact [60,70): arrives 61; 1→2 gone (ends 45) → 2,3 via 0→3
	if arr[1] != 61 {
		t.Errorf("arr[1] = %g, want 61", arr[1])
	}
	if arr[3] != 81 {
		t.Errorf("arr[3] = %g, want 81", arr[3])
	}
	if !math.IsInf(arr[2], 1) && arr[2] < 1e300 {
		t.Errorf("arr[2] = %g, want unreachable", arr[2])
	}
}

func TestEarliestArrivalsDisconnected(t *testing.T) {
	g := New(3, iv(0, 10), 0)
	g.AddContact(0, 1, iv(0, 10), 1)
	arr := g.EarliestArrivals(0, 0)
	if !math.IsInf(arr[2], 1) {
		t.Errorf("arr[2] = %g, want +Inf (unreachable)", arr[2])
	}
}

func TestJourneyValidate(t *testing.T) {
	g := lineGraph()
	good := Journey{{0, 1, 10}, {1, 2, 25}, {2, 3, 40}}
	if err := good.Validate(g); err != nil {
		t.Errorf("valid journey rejected: %v", err)
	}
	// hop not chained
	bad := Journey{{0, 1, 10}, {2, 3, 40}}
	if bad.Validate(g) == nil {
		t.Error("unchained journey accepted")
	}
	// departs before previous arrival
	bad = Journey{{0, 1, 25}, {1, 2, 25.5}}
	if bad.Validate(g) == nil {
		t.Error("overlapping hops accepted")
	}
	// edge not present
	bad = Journey{{0, 1, 40}}
	if bad.Validate(g) == nil {
		t.Error("absent-edge hop accepted")
	}
	// circle
	bad = Journey{{0, 1, 10}, {1, 0, 12}}
	if bad.Validate(g) == nil {
		t.Error("journey with circle accepted")
	}
	// self loop hop
	bad = Journey{{1, 1, 10}}
	if bad.Validate(g) == nil {
		t.Error("self-loop hop accepted")
	}
}

func TestJourneyDepartureArrivalNonStop(t *testing.T) {
	g := lineGraph()
	j := Journey{{0, 1, 26}, {1, 2, 27}}
	if j.Departure() != 26 {
		t.Errorf("Departure = %g, want 26", j.Departure())
	}
	if j.Arrival(g) != 28 {
		t.Errorf("Arrival = %g, want 28", j.Arrival(g))
	}
	if !j.NonStop(g) {
		t.Error("back-to-back hops should be non-stop")
	}
	j2 := Journey{{0, 1, 10}, {1, 2, 25}}
	if j2.NonStop(g) {
		t.Error("gapped journey is not non-stop")
	}
	if err := j.Validate(g); err != nil {
		t.Errorf("non-stop journey invalid: %v", err)
	}
}

// randomGraph builds a random TVG for property tests.
func randomGraph(r *rand.Rand, n int, tau float64) *Graph {
	g := New(n, iv(0, 1000), tau)
	contacts := 2 * n
	for c := 0; c < contacts; c++ {
		i := NodeID(r.Intn(n))
		j := NodeID(r.Intn(n))
		if i == j {
			continue
		}
		start := r.Float64() * 900
		g.AddContact(i, j, iv(start, start+10+r.Float64()*80), 1)
	}
	return g
}

func TestQuickEarliestArrivalsMonotoneInStart(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6, 1)
		a0 := g.EarliestArrivals(0, 0)
		a1 := g.EarliestArrivals(0, 100)
		for i := range a0 {
			if a1[i] < a0[i]-1e-9 {
				return false // starting later can never arrive earlier
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdjacencyConstantWithinPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 5, 1)
		for i := 0; i < g.N(); i++ {
			p := g.AdjacentPartition(NodeID(i))
			pts := p.Points()
			for k := 0; k+1 < len(pts); k++ {
				lo, hi := pts[k], pts[k+1]
				// sample two interior points; neighbor sets must match
				t1 := lo + (hi-lo)*0.25
				t2 := lo + (hi-lo)*0.75
				n1 := neighborsAt(g, NodeID(i), t1)
				n2 := neighborsAt(g, NodeID(i), t2)
				if len(n1) != len(n2) {
					return false
				}
				for x := range n1 {
					if n1[x] != n2[x] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickEarliestArrivalRespectsTau(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6, 2)
		arr := g.EarliestArrivals(0, 0)
		for i, a := range arr {
			if i == 0 || a > 1e300 {
				continue
			}
			// any reachable node needed at least one hop of length τ
			if a < g.Tau() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestActivePointsMatchesDegreeAt checks the pruned merge-walk against
// DegreeAt at every point, on point lists that start and end inside the
// trace and land on interval boundaries, so intervals ending before the
// first point or starting after the last are skipped while those
// reaching into the list still decide it.
func TestActivePointsMatchesDegreeAt(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, tau := range []float64{0, 0.5, 3} {
		for trial := 0; trial < 20; trial++ {
			g := New(6, interval.Interval{Start: 0, End: 400}, tau)
			var edges []float64
			for k := 0; k < 40; k++ {
				i, j := NodeID(r.Intn(6)), NodeID(r.Intn(6))
				if i == j {
					continue
				}
				start := r.Float64() * 380
				end := start + 1 + r.Float64()*30
				g.AddContact(i, j, interval.Interval{Start: start, End: end}, 1)
				edges = append(edges, start, end, end-tau)
			}
			lo, hi := r.Float64()*200, 200+r.Float64()*200
			var xs []float64
			for _, x := range append(edges, lo, hi) {
				if x >= lo && x <= hi {
					xs = append(xs, x)
				}
			}
			for k := 0; k < 30; k++ {
				xs = append(xs, lo+(hi-lo)*r.Float64())
			}
			slices.Sort(xs)
			for i := NodeID(0); i < 6; i++ {
				got := g.ActivePoints(i, xs, nil)
				var want []int
				for p, x := range xs {
					if g.DegreeAt(i, x) > 0 {
						want = append(want, p)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("τ=%g trial %d node %d: ActivePoints %v, DegreeAt > 0 at %v", tau, trial, i, got, want)
				}
			}
		}
	}
	if got := New(2, interval.Interval{Start: 0, End: 1}, 0).ActivePoints(0, nil, nil); got != nil {
		t.Errorf("no points: %v", got)
	}
}
