package dts

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/interval"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

func lineGraph(tau float64) *tvg.Graph {
	g := tvg.New(4, iv(0, 100), tau)
	g.AddContact(0, 1, iv(10, 30), 1)
	g.AddContact(1, 2, iv(25, 45), 1)
	g.AddContact(2, 3, iv(40, 55), 1)
	return g
}

// randomGraph builds a dense-ish random TVG.
func randomGraph(r *rand.Rand, n int, tau float64) *tvg.Graph {
	g := tvg.New(n, iv(0, 200), tau)
	contacts := 2 * n
	for k := 0; k < contacts; k++ {
		i := tvg.NodeID(r.Intn(n))
		j := tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		start := r.Float64() * 150
		g.AddContact(i, j, iv(start, start+5+r.Float64()*40), 1)
	}
	return g
}

func TestBuildTauZeroContainsAdjacencyBreakpoints(t *testing.T) {
	g := lineGraph(0)
	d, _ := Build(g, 0, 100, Options{})
	// node 1 has contacts [10,30) and [25,45): breakpoints 10,25,30,45;
	// also 40 (edge 2-3 start) is a global point, and node 1 has degree>0
	// there (contact [25,45) covers 40) so it is kept. At 45 its last
	// contact is over (half-open), so 45 is pruned.
	want := []float64{0, 10, 25, 30, 40, 100}
	got := d.Points[1]
	if len(got) != len(want) {
		t.Fatalf("P_1^di = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("P_1^di[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestBuildPrunesZeroDegreePoints(t *testing.T) {
	g := lineGraph(0)
	d, _ := Build(g, 0, 100, Options{})
	// node 3 only has the contact [40,55): 40 stays, 45 (a global point
	// inside the contact) stays, 55 is the excluded endpoint and is
	// pruned along with every other zero-degree point.
	want := []float64{0, 40, 45, 100}
	got := d.Points[3]
	if len(got) != len(want) {
		t.Fatalf("P_3^di = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("P_3^di[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestBuildNoPruneKeepsAllGlobalPoints(t *testing.T) {
	g := lineGraph(0)
	pruned, _ := Build(g, 0, 100, Options{})
	full, _ := Build(g, 0, 100, Options{NoPrune: true})
	if full.TotalPoints() <= pruned.TotalPoints() {
		t.Errorf("NoPrune total %d should exceed pruned %d",
			full.TotalPoints(), pruned.TotalPoints())
	}
	// every node then shares the same global point list
	for i := 1; i < len(full.Points); i++ {
		if len(full.Points[i]) != len(full.Points[0]) {
			t.Errorf("NoPrune points differ between nodes: %v vs %v",
				full.Points[i], full.Points[0])
		}
	}
}

func TestBuildTauPropagation(t *testing.T) {
	g := lineGraph(2) // τ = 2
	d, _ := Build(g, 0, 100, Options{})
	// contact (0,1) eroded: [10,28); breakpoint 10 spawns 12,14,16 via
	// +kτ. Node 1 has degree > 0 at those times (contact [10,30) up),
	// so they must appear in P_1^di.
	for _, want := range []float64{10, 12, 14, 16} {
		found := false
		for _, p := range d.Points[1] {
			if math.Abs(p-want) < 1e-9 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("P_1^di missing τ-propagated point %g: %v", want, d.Points[1])
		}
	}
}

func TestBuildWindowClipping(t *testing.T) {
	g := lineGraph(0)
	d, _ := Build(g, 20, 42, Options{})
	for i, pts := range d.Points {
		if pts[0] != 20 || pts[len(pts)-1] != 42 {
			t.Errorf("node %d window endpoints wrong: %v", i, pts)
		}
		for _, p := range pts {
			if p < 20 || p > 42 {
				t.Errorf("node %d point %g outside window", i, p)
			}
		}
	}
}

func TestBuildPanicsOutsideSpan(t *testing.T) {
	g := lineGraph(0)
	for _, f := range []func(){
		func() { _, _ = Build(g, -5, 50, Options{}) },
		func() { _, _ = Build(g, 0, 150, Options{}) },
		func() { _, _ = Build(g, 50, 50, Options{}) },
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

func TestIndexAndAt(t *testing.T) {
	g := lineGraph(0)
	d, _ := Build(g, 0, 100, Options{})
	// P_1^di = [0 10 25 30 40 45 100]
	if got := d.Index(1, 10); d.At(1, got) != 10 {
		t.Errorf("Index(1,10) = %d (point %g), want point 10", got, d.At(1, got))
	}
	if got := d.Index(1, 24.9); d.At(1, got) != 10 {
		t.Errorf("Index(1,24.9) → point %g, want 10", d.At(1, got))
	}
	if got := d.Index(1, -1); got != -1 {
		t.Errorf("Index before first point = %d, want -1", got)
	}
	if got := d.Last(1); d.At(1, got) != 100 {
		t.Errorf("Last point = %g, want 100", d.At(1, got))
	}
}

func TestEarliestTransmissionTime(t *testing.T) {
	g := lineGraph(0)
	// node 1's adjacent partition intervals include [25,30) etc.
	// informed before the interval → transmit at interval start
	got := EarliestTransmissionTime(g, 1, 12, 27)
	if got != 25 {
		t.Errorf("ET(informed=12, t=27) = %g, want 25 (interval start)", got)
	}
	// informed inside the interval → transmit at informed time
	got = EarliestTransmissionTime(g, 1, 26, 27)
	if got != 26 {
		t.Errorf("ET(informed=26, t=27) = %g, want 26", got)
	}
}

func TestTotalPointsBoundTauZero(t *testing.T) {
	// §V: with τ≈0 the DTS has O(N²L) points. Check the literal bound
	// N * (global points) for a random graph.
	r := rand.New(rand.NewSource(1))
	n := 8
	g := tvg.New(n, iv(0, 1000), 0)
	contacts := 0
	for c := 0; c < 40; c++ {
		i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		s := r.Float64() * 900
		g.AddContact(i, j, iv(s, s+50), 1)
		contacts++
	}
	d, _ := Build(g, 0, 1000, Options{NoPrune: true})
	// global points <= 2*contacts + 2 (window endpoints)
	maxGlobal := 2*contacts + 2
	if d.TotalPoints() > n*maxGlobal {
		t.Errorf("TotalPoints %d exceeds N·(2·contacts+2) = %d", d.TotalPoints(), n*maxGlobal)
	}
}

func TestQuickPointsSortedAndInWindow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(5)
		tau := float64(r.Intn(3))
		g := tvg.New(n, iv(0, 500), tau)
		for c := 0; c < 3*n; c++ {
			i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
			if i == j {
				continue
			}
			s := r.Float64() * 450
			g.AddContact(i, j, iv(s, s+5+r.Float64()*40), 1)
		}
		d, _ := Build(g, 0, 500, Options{})
		for _, pts := range d.Points {
			for k, p := range pts {
				if p < 0 || p > 500 {
					return false
				}
				if k > 0 && pts[k]-pts[k-1] <= timeEps {
					return false
				}
			}
			if pts[len(pts)-1] != 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickPrunedSubsetOfUnpruned(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(4)
		g := tvg.New(n, iv(0, 200), 0)
		for c := 0; c < 2*n; c++ {
			i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
			if i == j {
				continue
			}
			s := r.Float64() * 180
			g.AddContact(i, j, iv(s, s+5+r.Float64()*15), 1)
		}
		pruned, _ := Build(g, 0, 200, Options{})
		full, _ := Build(g, 0, 200, Options{NoPrune: true})
		for i := range pruned.Points {
			for _, p := range pruned.Points[i] {
				found := false
				for _, q := range full.Points[i] {
					if math.Abs(p-q) <= timeEps {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMemoReturnsSharedIdenticalDTS pins the transparent memo: a second
// Build with the same (graph, window, options) returns the SAME *DTS
// (pointer identity is what lets the auxiliary-graph memo key on it),
// NoMemo bypasses it, and mutating the graph invalidates by version.
func TestMemoReturnsSharedIdenticalDTS(t *testing.T) {
	g := lineGraph(0)
	d1, err := Build(g, 0, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(g, 0, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("memo should return the identical *DTS on a repeat build")
	}
	d3, err := Build(g, 0, 10, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("NoMemo build must not come from the memo")
	}
	if !reflect.DeepEqual(d1.Points, d3.Points) {
		t.Fatal("memoized and fresh DTS differ")
	}
	// Different options miss.
	d4, err := Build(g, 0, 10, Options{NoPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if d4 == d1 {
		t.Fatal("NoPrune build must not share the pruned entry")
	}
	// Mutating the topology bumps the version: no stale hit.
	g.AddContact(0, 2, interval.Interval{Start: 1, End: 2}, 1)
	d5, err := Build(g, 0, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d5 == d1 {
		t.Fatal("memo served a stale DTS after AddContact")
	}
}

// checkFilter asserts that each node's points keep exactly the global
// points at which the node has a neighbor, the DegreeAt oracle the
// merge-walk filter replaces. The window endpoints are kept whatever
// the node's degree, and no node keeps a point outside the global list.
func checkFilter(t *testing.T, g *tvg.Graph, d *DTS, label string) {
	t.Helper()
	_, global, err := globalPoints(g, d.T0, d.Deadline, g.N()-1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, pts := range d.Points {
		for _, x := range pts {
			if x != d.T0 && x != d.Deadline && !hasPoint(global, x) {
				t.Fatalf("%s: node %d keeps %v, which is no global point", label, i, x)
			}
		}
		for _, x := range global {
			if x == d.T0 || x == d.Deadline {
				continue
			}
			if got, want := hasPoint(pts, x), g.DegreeAt(tvg.NodeID(i), x) > 0; got != want {
				t.Fatalf("%s: node %d at global point %v (x+τ = %v): kept = %v, DegreeAt > 0 = %v",
					label, i, x, x+g.Tau(), got, want)
			}
		}
	}
}

// hasPoint reports whether the sorted xs holds exactly x.
func hasPoint(xs []float64, x float64) bool {
	k := sort.SearchFloat64s(xs, x)
	return k < len(xs) && xs[k] == x
}

// TestFilterMatchesDegreeOracle checks the per-node filter against
// DegreeAt at every global point: random graphs for τ ∈ {0, 0.5, 3},
// and crafted contacts whose ends sit exactly on, or one ulp either
// side of, x+τ for a global point x, with τ chosen so that
// ContainsWindow's x+τ < End and Erode's x < End−τ round apart.
func TestFilterMatchesDegreeOracle(t *testing.T) {
	for _, tau := range []float64{0, 0.5, 3} {
		r := rand.New(rand.NewSource(int64(1 + 10*tau)))
		for trial := 0; trial < 8; trial++ {
			g := randomGraph(r, 8, tau)
			d, err := Build(g, 0, 200, Options{NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			checkFilter(t, g, d, fmt.Sprintf("τ=%g trial %d", tau, trial))
		}
	}

	nudge := func(x float64, ulps int) float64 {
		for ; ulps > 0; ulps-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; ulps < 0; ulps++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	// The starts are picked so that, at τ = 0.3 and 1.1, q+τ and
	// (q+τ)−τ round on different sides of the window test at some
	// global point: there, Erode's form keeps what ContainsWindow drops
	// or the reverse.
	for _, c := range []struct {
		tau    float64
		starts []float64
	}{
		{0, []float64{10.1, 33.3}},
		{0.3, []float64{7, 63}},
		{1.1, []float64{1.1, 2.8}},
	} {
		tau := c.tau
		kept, dropped, split := 0, 0, 0
		for _, s := range c.starts {
			// q is a global point: s is a breakpoint, and the +kτ
			// closure (τ > 0) or the (0,2) contact's start (τ = 0)
			// puts q next to it.
			q := s + float64(3)*tau
			if tau == 0 {
				q = s + 20
			}
			for dEnd := -1; dEnd <= 1; dEnd++ {
				for dStart := -1; dStart <= 1; dStart++ {
					label := fmt.Sprintf("crafted τ=%g s=%g end%+d start%+d", tau, s, dEnd, dStart)
					end := nudge(q+tau, dEnd)
					g := tvg.New(4, iv(0, 200), tau)
					g.AddContact(0, 1, iv(s, end), 1)
					g.AddContact(0, 2, iv(nudge(q, dStart), q+50), 1)
					g.AddContact(2, 3, iv(q+tau, q+60), 1)
					d, err := Build(g, 0, 200, Options{NoMemo: true})
					if err != nil {
						t.Fatal(err)
					}
					checkFilter(t, g, d, label)
					_, global, err := globalPoints(g, 0, 200, g.N()-1, nil)
					if err != nil {
						t.Fatal(err)
					}
					p := sort.Search(len(global), func(p int) bool { return global[p] >= q-timeEps })
					if p == len(global) || math.Abs(global[p]-q) > timeEps {
						t.Fatalf("%s: no global point at %v: %v", label, q, global)
					}
					if hasPoint(d.Points[1], global[p]) {
						kept++
					} else {
						dropped++
					}
					for _, x := range global {
						if x >= s && (x+tau < end) != (x < end-tau) {
							split++
						}
					}
				}
			}
		}
		// Node 1 meets only node 0, so at q its answer is the boundary
		// test alone: the crafted ends must land on both sides of it,
		// and for τ > 0 some global point must tell the two forms apart.
		if kept == 0 || dropped == 0 {
			t.Fatalf("τ=%g: node 1 kept the boundary point %d times and dropped it %d times; the crafted ends missed the boundary", tau, kept, dropped)
		}
		if tau > 0 && split == 0 {
			t.Fatalf("τ=%g: no crafted global point separates x+τ < End from x < End−τ", tau)
		}
	}
}
