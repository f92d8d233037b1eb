package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomDigraph builds a digraph whose weight distribution mimics the
// auxiliary graph: a few discrete power levels, heavy zero-weight
// cohorts (wait and coverage edges), possible duplicate edges.
func randomLevelDigraph(rng *rand.Rand, n, m int) *Digraph {
	g := New(n)
	levels := []float64{0, 0, 0, 0.5, 1, 1, 2.25, 4, 7.5}
	for k := 0; k < m; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		g.AddEdge(u, v, levels[rng.Intn(len(levels))])
	}
	return g
}

// TestCSRMatchesDigraph pins the CSR layout against the adjacency-list
// representation: same vertex count, same out-edges in the same order.
func TestCSRMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		d := randomLevelDigraph(rng, n, rng.Intn(6*n))
		c := FromDigraph(d)
		if c.N() != d.N() || c.M() != d.M() {
			t.Fatalf("size mismatch: csr %d/%d digraph %d/%d", c.N(), c.M(), d.N(), d.M())
		}
		for u := 0; u < n; u++ {
			out := d.Out(u)
			if deg := int(c.Off[u+1] - c.Off[u]); deg != len(out) {
				t.Fatalf("deg(%d) = %d, want %d", u, deg, len(out))
			}
			for i, e := range out {
				ei := c.Off[u] + int32(i)
				if int(c.To[ei]) != e.To || c.W[ei] != e.W {
					t.Fatalf("edge %d of %d: csr (%d,%g) digraph (%d,%g)", i, u, c.To[ei], c.W[ei], e.To, e.W)
				}
			}
		}
	}
}

// sameDistances reports the first vertex whose distance differs bit for
// bit between got and want, or -1.
func sameDistances(got, want []float64) int {
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return v
		}
	}
	return -1
}

// boundedMismatch runs both sweeps from src bounded at limit and
// compares them with the unbounded labels full and predecessors prev:
// every label <= limit must match bit for bit, and so must its
// predecessor in ShortestPathsWithin; every other label must read Inf
// with prev -1; and each sweep must settle exactly the labels <= limit.
// It returns "" or a description of the first mismatch.
func boundedMismatch(c *CSR, src int, limit float64, full []float64, prev []int32, sc *DijkstraScratch) string {
	got := make([]float64, len(full))
	pops := sc.Pops
	c.DistancesInto(src, limit, got, sc)
	distPops := sc.Pops - pops
	gotFwd := make([]float64, len(full))
	gotPrev := make([]int32, len(full))
	pops = sc.Pops
	c.ShortestPathsWithin(src, limit, gotFwd, gotPrev, sc)
	fwdPops := sc.Pops - pops
	var within int64
	for v, d := range full {
		if d <= limit && !math.IsInf(d, 1) {
			within++
			if math.Float64bits(got[v]) != math.Float64bits(d) {
				return fmt.Sprintf("limit %v: DistancesInto dist[%d] = %v, want %v", limit, v, got[v], d)
			}
			if math.Float64bits(gotFwd[v]) != math.Float64bits(d) || gotPrev[v] != prev[v] {
				return fmt.Sprintf("limit %v: ShortestPathsWithin (dist, prev)[%d] = (%v, %d), want (%v, %d)", limit, v, gotFwd[v], gotPrev[v], d, prev[v])
			}
		} else if !math.IsInf(got[v], 1) || !math.IsInf(gotFwd[v], 1) || gotPrev[v] != -1 {
			return fmt.Sprintf("limit %v: vertex %d above the limit reads DistancesInto %v, ShortestPathsWithin (%v, %d); want Inf, (Inf, -1)", limit, v, got[v], gotFwd[v], gotPrev[v])
		}
	}
	if distPops != within || fwdPops != within {
		return fmt.Sprintf("limit %v: settled %d (DistancesInto) and %d (ShortestPathsWithin) vertices, want the %d labels <= limit", limit, distPops, fwdPops, within)
	}
	return ""
}

// limitsAround lists the bounds a trial sweeps to: 0, Inf, and each of
// labels exactly and one ulp either side (below only when positive, as
// limits are >= 0).
func limitsAround(labels ...float64) []float64 {
	out := []float64{0, Inf}
	for _, d := range labels {
		out = append(out, d, math.Nextafter(d, Inf))
		if d > 0 {
			out = append(out, math.Nextafter(d, 0))
		}
	}
	return out
}

// medianFinite returns the median of the finite labels in dist.
func medianFinite(dist []float64) float64 {
	var fin []float64
	for _, d := range dist {
		if !math.IsInf(d, 1) {
			fin = append(fin, d)
		}
	}
	slices.Sort(fin)
	return fin[len(fin)/2]
}

// TestBucketDijkstraMatchesHeap is the differential test for the bucket
// queue: on randomized graphs (including zero-weight-heavy,
// disconnected, and duplicate-edge instances), the CSR bucket-queue
// Dijkstra must produce bitwise-identical distances AND predecessors to
// the retained reference heap implementation. Both use the canonical
// (dist, vertex) tie-break, so this is exact equality, not tolerance
// comparison. The distance-only sweep must produce the same distances
// bit for bit and settle the same number of vertices. Both sweeps,
// bounded at 0, Inf, and at and one ulp either side of the trial's
// median and of one random finite label, must keep every label up to
// the bound (and the forward sweep its predecessor) bit for bit, read
// Inf beyond it and settle only the labels they keep.
func TestBucketDijkstraMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := GetScratch()
	defer PutScratch(sc)
	sd := GetScratch()
	defer PutScratch(sd)
	sb := GetScratch()
	defer PutScratch(sb)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		d := randomLevelDigraph(rng, n, rng.Intn(8*n))
		c := FromDigraph(d)
		src := rng.Intn(n)

		wantDist, wantPrev := d.ShortestPaths(src)
		gotDist := make([]float64, n)
		gotPrev := make([]int32, n)
		pops := sc.Pops
		c.ShortestPathsInto(src, gotDist, gotPrev, sc)
		pops = sc.Pops - pops

		onlyDist := make([]float64, n)
		distPops := sd.Pops
		c.DistancesInto(src, Inf, onlyDist, sd)
		distPops = sd.Pops - distPops
		if v := sameDistances(onlyDist, wantDist); v >= 0 {
			t.Fatalf("trial %d: DistancesInto dist[%d] = %v, want %v", trial, v, onlyDist[v], wantDist[v])
		}
		if distPops != pops {
			t.Fatalf("trial %d: DistancesInto settled %d vertices, ShortestPathsInto %d", trial, distPops, pops)
		}
		label := wantDist[rng.Intn(n)]
		if math.IsInf(label, 1) {
			label = 0
		}
		for _, limit := range limitsAround(medianFinite(wantDist), label) {
			if msg := boundedMismatch(c, src, limit, wantDist, gotPrev, sb); msg != "" {
				t.Fatalf("trial %d: bounded sweeps: %s", trial, msg)
			}
		}

		for v := 0; v < n; v++ {
			//tmedbvet:ignore floateq differential test requires bitwise-identical distances, not tolerant agreement
			if gotDist[v] != wantDist[v] && !(math.IsInf(gotDist[v], 1) && math.IsInf(wantDist[v], 1)) {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, gotDist[v], wantDist[v])
			}
			if int(gotPrev[v]) != wantPrev[v] {
				t.Fatalf("trial %d: prev[%d] = %d, want %d (dist %v)", trial, v, gotPrev[v], wantPrev[v], gotDist[v])
			}
		}

		// Path reconstruction agrees too.
		for probe := 0; probe < 3; probe++ {
			dst := rng.Intn(n)
			p1 := PathTo(wantPrev, src, dst)
			p2, ok := PathTo32Into(gotPrev, src, dst, nil)
			if !ok {
				p2 = nil
			}
			if len(p1) != len(p2) {
				t.Fatalf("trial %d: path lengths differ: %v vs %v", trial, p1, p2)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("trial %d: paths differ: %v vs %v", trial, p1, p2)
				}
			}
		}
	}
	if sc.Pops == 0 || sc.Pushes == 0 {
		t.Fatalf("scratch counters not accumulating: %+v", sc)
	}
	if sd.Pushes >= sc.Pushes || sd.Scanned >= sc.Scanned {
		t.Fatalf("plateau stack took no work off the buckets: distance-only %+v, full %+v", sd, sc)
	}

	// A warmed scratch runs both sweeps allocation-free, bounded or not.
	c := FromDigraph(randomLevelDigraph(rng, 200, 1600))
	dist := make([]float64, c.N())
	prev := make([]int32, c.N())
	c.DistancesInto(0, Inf, dist, sd)
	limit := medianFinite(dist)
	for _, lim := range []float64{Inf, limit} {
		if allocs := testing.AllocsPerRun(100, func() { c.DistancesInto(0, lim, dist, sd) }); allocs != 0 {
			t.Fatalf("DistancesInto(limit %v) on a warmed scratch: %v allocs/run, want 0", lim, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.ShortestPathsWithin(0, lim, dist, prev, sc) }); allocs != 0 {
			t.Fatalf("ShortestPathsWithin(limit %v) on a warmed scratch: %v allocs/run, want 0", lim, allocs)
		}
	}
}

// TestBucketDijkstraZeroWeightPlateau exercises the all-zero-weight
// corner (bucket width degenerates): every reachable vertex sits at
// distance 0 and the tie-break settles vertices in index order. A
// second instance builds a plateau out of positive weights absorbed by
// rounding: at d = 1e3, fl(d + 1e-18) == d. Both sweeps must match the
// reference heap's distances bit for bit on each. The bounded rows
// run both sweeps: bounded at the plateau's own value, the sweeps drop
// only keys strictly above their limit, so the whole plateau settles;
// one ulp below it, only the source does.
func TestBucketDijkstraZeroWeightPlateau(t *testing.T) {
	n := 30
	d := New(n)
	for u := n - 1; u > 0; u-- {
		d.AddEdge(0, u, 0)
		d.AddEdge(u, u-1, 0)
	}
	absorbed := New(n)
	absorbed.AddEdge(0, 1, 1e3)
	for u := 1; u+1 < n; u++ {
		absorbed.AddEdge(u, u+1, 1e-18)
		absorbed.AddEdge(1, u+1, 1e-18)
	}
	absorbed.AddEdge(n-1, 1, 2.5)
	for _, tc := range []struct {
		name    string
		d       *Digraph
		want    float64 // distance of vertex n-1
		limit   float64 // both sweeps' bound
		settled int64   // labels <= limit
	}{
		{"zero", d, 0, Inf, int64(n)},
		{"zero, bounded at 0", d, 0, 0, int64(n)},
		{"absorbed", absorbed, 1e3, Inf, int64(n)},
		{"absorbed, bounded at the plateau", absorbed, 1e3, 1e3, int64(n)},
		{"absorbed, bounded one ulp below the plateau", absorbed, 1e3, math.Nextafter(1e3, 0), 1},
	} {
		c := FromDigraph(tc.d)
		wantDist, wantPrev := tc.d.ShortestPaths(0)
		if math.Float64bits(wantDist[n-1]) != math.Float64bits(tc.want) {
			t.Fatalf("%s: reference dist[%d] = %v, want the plateau %v", tc.name, n-1, wantDist[n-1], tc.want)
		}
		gotDist := make([]float64, n)
		gotPrev := make([]int32, n)
		c.ShortestPathsInto(0, gotDist, gotPrev, GetScratch())
		for v := 0; v < n; v++ {
			//tmedbvet:ignore floateq differential test requires bitwise-identical distances, not tolerant agreement
			if gotDist[v] != wantDist[v] || int(gotPrev[v]) != wantPrev[v] {
				t.Fatalf("%s v%d: got (%g,%d) want (%g,%d)", tc.name, v, gotDist[v], gotPrev[v], wantDist[v], wantPrev[v])
			}
		}
		if msg := boundedMismatch(c, 0, tc.limit, wantDist, gotPrev, GetScratch()); msg != "" {
			t.Fatalf("%s: %s", tc.name, msg)
		}
		sc := GetScratch()
		c.DistancesInto(0, tc.limit, make([]float64, n), sc)
		if sc.Pops != tc.settled {
			t.Fatalf("%s: DistancesInto settled %d vertices, want %d", tc.name, sc.Pops, tc.settled)
		}
		// Only the plateau's entry vertex (its key differs from its
		// tail's) goes through a bucket; the rest settle off the stack.
		if sc.Pushes > 1 {
			t.Fatalf("%s: %d bucket pushes, want at most 1 (plateau settles off the stack)", tc.name, sc.Pushes)
		}
		PutScratch(sc)
	}
}

// TestTransposeMatchesReference pins the transpose edge order against
// the order the Steiner solver's reverse graph was historically built
// in: iterate sources ascending, append to the head's list.
func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		d := randomLevelDigraph(rng, n, rng.Intn(5*n))
		want := New(n)
		for u := 0; u < n; u++ {
			for _, e := range d.Out(u) {
				want.AddEdge(e.To, u, e.W)
			}
		}
		got := FromDigraph(d).Transpose(nil)
		ref := FromDigraph(want)
		if got.M() != ref.M() {
			t.Fatalf("edge count %d want %d", got.M(), ref.M())
		}
		for i := range got.To {
			if got.To[i] != ref.To[i] || got.W[i] != ref.W[i] {
				t.Fatalf("trial %d: transpose edge %d: (%d,%g) want (%d,%g)", trial, i, got.To[i], got.W[i], ref.To[i], ref.W[i])
			}
		}
		for u := 0; u <= n; u++ {
			if got.Off[u] != ref.Off[u] {
				t.Fatalf("trial %d: Off[%d] = %d want %d", trial, u, got.Off[u], ref.Off[u])
			}
		}
	}
}

// TestCSRReachableMatchesDigraph checks the flat reachability sweep.
func TestCSRReachableMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		d := randomLevelDigraph(rng, n, rng.Intn(3*n))
		c := FromDigraph(d)
		src := rng.Intn(n)
		want := d.Reachable(src)
		got := c.Reachable(src)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("reach[%d] = %v, want %v", v, got[v], want[v])
			}
		}
	}
}

// TestBuildCSRPayloadPermutation checks BuildCSR's stable grouping and
// the pos mapping that carries per-edge payloads across the sort.
func TestBuildCSRPayloadPermutation(t *testing.T) {
	var el EdgeList
	el.Add(2, 0, 1.5)
	el.Add(0, 1, 0)
	el.Add(2, 1, 2.5)
	el.Add(0, 2, 3)
	el.Add(1, 0, 0.5)
	g, pos := BuildCSR(3, &el, nil)
	if g.N() != 3 || g.M() != 5 {
		t.Fatalf("size: %d/%d", g.N(), g.M())
	}
	// Per-vertex order must preserve Add order: vertex 0 → (1,0),(2,3);
	// vertex 1 → (0,0.5); vertex 2 → (0,1.5),(1,2.5).
	wantTo := []int32{1, 2, 0, 0, 1}
	wantW := []float64{0, 3, 0.5, 1.5, 2.5}
	for i := range wantTo {
		if g.To[i] != wantTo[i] || g.W[i] != wantW[i] {
			t.Fatalf("edge %d: (%d,%g) want (%d,%g)", i, g.To[i], g.W[i], wantTo[i], wantW[i])
		}
	}
	// pos maps list order to CSR slots.
	wantPos := []int32{3, 0, 4, 1, 2}
	for i, p := range pos {
		if p != wantPos[i] {
			t.Fatalf("pos[%d] = %d, want %d", i, p, wantPos[i])
		}
	}
	if g.maxW != 3 {
		t.Fatalf("maxW = %g, want 3", g.maxW)
	}
}
