package graph

import "sync"

// This file implements the CSR Dijkstra on a monotone bucket queue
// (a Dial-style calendar queue generalized to float keys). Edge weights
// in the auxiliary graph are drawn from the discrete cost sets — a small
// set of bounded power levels — so tentative distances live in a sliding
// window of width maxW (the largest edge weight) above the last settled
// distance. nBuckets circular buckets of width maxW/(nBuckets-4) cover
// that window with slack for float rounding.
//
// Each bucket is a small binary heap ordered by the (distance, vertex)
// lexicographic key. The auxiliary graph is dominated by zero-weight
// wait and coverage edges, so distances plateau onto few distinct
// values and whole connected regions land in ONE bucket; a per-bucket
// heap keeps those plateau pops at O(log k) where a scan-for-min would
// go quadratic. Push is an append + sift-up into the key's bucket, pop
// removes the root of the current bucket.
//
// Determinism contract: pop returns the exact minimum of the (distance,
// vertex) lexicographic order among live entries. All entries with equal
// distance land in the same bucket (the bucket index is a pure monotone
// function of the key), so the current bucket's heap root — skipping
// stale entries — is the global minimum. Combined with strict-less
// relaxation and CSR edge order this makes dist/prev bitwise identical
// to the reference binary-heap Dijkstra with the same (dist, v) ordering
// — the property the differential tests in csr_test.go pin.
//
// DistancesInto is the same sweep for callers that never read prev. A
// head whose relaxation leaves the key unchanged (du+w == du) is final
// the moment it is labelled, so it skips the bucket heap and settles
// from a LIFO plateau stack instead. That changes the settle order
// inside a plateau, which predecessors depend on and distances do not:
// fl(d+w) is monotone in d and never below d, so each label is the
// minimum over in-edges of fl(dist[u]+w) in every order that settles
// keys non-decreasingly.
//
// Both sweeps take a limit. A relaxation that would label a vertex
// above it is dropped, so no key above the limit ever enters a bucket
// and the sweep ends once the last key <= limit has settled. Keys
// settle in (distance, vertex) order over non-negative weights, and a
// settled vertex's label and prev never change again, so every
// relaxation that produces a label <= limit comes from a tail that
// settles first, in the same order as in the unbounded sweep: those
// labels, their predecessors and the settled count are bitwise the
// unbounded sweep's, and every other label reads Inf (prev -1).

// nBuckets is the circular bucket count. The window of live keys spans
// at most maxW = (nBuckets-4) bucket widths; the 4 spare buckets absorb
// the floor-rounding slack at both window edges so two distinct virtual
// buckets never alias the same physical slot.
const nBuckets = 132

type bqEntry struct {
	d float64
	v int32
}

// bqLess is the (distance, vertex) lexicographic order shared with the
// reference heap.
func bqLess(a, b bqEntry) bool {
	return a.d < b.d || (a.d == b.d && a.v < b.v)
}

// DijkstraScratch holds the queue storage and operation counters for
// ShortestPathsWithin and DistancesInto. One scratch serves one Dijkstra
// at a time; parallel sweeps take one per worker from the package pool
// (GetScratch). The counters accumulate across runs until the owner
// flushes them to its metrics recorder.
type DijkstraScratch struct {
	buckets [nBuckets][]bqEntry
	plateau []int32 // DistancesInto's settle stack; at most N entries

	// Pushes counts bucket inserts; Pops counts vertices settled, off a
	// bucket or off the plateau stack; Stale counts superseded bucket
	// entries discarded; Scanned counts heap sift-down levels in bucket
	// pops.
	Pushes, Pops, Stale, Scanned int64
}

var scratchPool = sync.Pool{New: func() any { return new(DijkstraScratch) }}

// GetScratch takes a scratch from the package pool with zeroed counters.
func GetScratch() *DijkstraScratch {
	sc := scratchPool.Get().(*DijkstraScratch)
	sc.Pushes, sc.Pops, sc.Stale, sc.Scanned = 0, 0, 0, 0
	return sc
}

// PutScratch returns a scratch to the package pool.
func PutScratch(sc *DijkstraScratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// bqPush appends e to the bucket heap and sifts it up. The sift moves a
// hole toward the root and writes e once, instead of swapping e upward.
func bqPush(b []bqEntry, e bqEntry) []bqEntry {
	b = append(b, e)
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !bqLess(e, b[p]) {
			break
		}
		b[i] = b[p]
		i = p
	}
	b[i] = e
	return b
}

// bqPop removes and returns the root of the bucket heap. The sift moves
// a hole down to the displaced last entry's final position and writes it
// once. scanned counts the sift-down levels.
func bqPop(b []bqEntry, scanned *int64) (bqEntry, []bqEntry) {
	root := b[0]
	last := len(b) - 1
	e := b[last]
	b = b[:last]
	if last == 0 {
		return root, b
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= last-1 {
			if l == last-1 && bqLess(b[l], e) {
				b[i] = b[l]
				i = l
			}
			break
		}
		m := l
		if bqLess(b[l+1], b[l]) {
			m = l + 1
		}
		*scanned++
		if !bqLess(b[m], e) {
			break
		}
		b[i] = b[m]
		i = m
	}
	b[i] = e
	return root, b
}

// ShortestPathsInto runs Dijkstra from src over the whole graph: it is
// ShortestPathsWithin with limit Inf.
func (g *CSR) ShortestPathsInto(src int, dist []float64, prev []int32, sc *DijkstraScratch) {
	g.ShortestPathsWithin(src, Inf, dist, prev, sc)
}

// ShortestPathsWithin runs Dijkstra from src, writing distances and
// predecessors into dist and prev (each len N, fully overwritten;
// prev[v] = -1 for src and unreachable vertices) and settling keys up
// to limit (>= 0; Inf sweeps the whole graph). Every label <= limit,
// and its prev, is bitwise identical to the unbounded sweep's; every
// other label reads Inf with prev -1, and Pops counts the labels <=
// limit (the bound argument at the top of this file). sc provides the
// queue storage and is required.
//
//tmedbvet:hotpath
func (g *CSR) ShortestPathsWithin(src int, limit float64, dist []float64, prev []int32, sc *DijkstraScratch) {
	n := g.N()
	for i := 0; i < n; i++ {
		dist[i] = Inf
		prev[i] = -1
	}
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	width := g.maxW / float64(nBuckets-4)
	if width <= 0 {
		width = 1 // all weights zero: every key is 0, one bucket suffices
	}
	inv := 1 / width

	dist[src] = 0
	sc.buckets[0] = append(sc.buckets[0], bqEntry{0, int32(src)})
	count := 1
	for vb := int64(0); count > 0; {
		slot := vb % nBuckets
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		// Superseded entry: its vertex found a shorter path after it was
		// pushed. Per vertex at most one entry ever satisfies
		// d == dist[v] — pushes for a vertex carry strictly decreasing
		// d — so liveness needs no settled-set bookkeeping.
		//tmedbvet:ignore floateq liveness test is identity of the pushed key with the current label, not a tolerance comparison
		if dist[e.v] != e.d {
			sc.Stale++
			continue
		}
		sc.Pops++

		u := e.v
		du := e.d
		for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
			v := g.To[ei]
			if nd := du + g.W[ei]; nd < dist[v] && nd <= limit {
				dist[v] = nd
				prev[v] = u
				tb := int64(nd*inv) % nBuckets
				sc.buckets[tb] = bqPush(sc.buckets[tb], bqEntry{nd, v})
				count++
				sc.Pushes++
			}
		}
	}
}

// DistancesInto runs Dijkstra from src writing only distances into dist
// (len N, fully overwritten): the distance-only sweep described at the
// top of this file, settling keys up to limit (>= 0; Inf sweeps the
// whole graph). Every label <= limit is bitwise identical to
// ShortestPathsInto's, every other label is Inf, and Pops counts the
// labels <= limit; Pushes, Stale and Scanned count bucket traffic only,
// which plateau vertices skip. sc is required.
//
//tmedbvet:hotpath
func (g *CSR) DistancesInto(src int, limit float64, dist []float64, sc *DijkstraScratch) {
	n := g.N()
	for i := 0; i < n; i++ {
		dist[i] = Inf
	}
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	// Every vertex enters the plateau at most once (its label is final
	// when it does), so capacity N means the appends never reallocate.
	if cap(sc.plateau) < n {
		sc.plateau = make([]int32, 0, n)
	}
	width := g.maxW / float64(nBuckets-4)
	if width <= 0 {
		width = 1 // all weights zero: every key is 0, one bucket suffices
	}
	inv := 1 / width

	dist[src] = 0
	plateau := append(sc.plateau[:0], int32(src))
	count := 0
	for vb := int64(0); ; {
		// Settle the plateau: every vertex on it carries the current
		// minimum key, which no pending relaxation can undercut.
		for len(plateau) > 0 {
			u := plateau[len(plateau)-1]
			plateau = plateau[:len(plateau)-1]
			sc.Pops++
			du := dist[u]
			for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
				v := g.To[ei]
				nd := du + g.W[ei]
				if nd >= dist[v] || nd > limit {
					continue
				}
				dist[v] = nd
				// nd >= du always, so nd <= du means the relaxation left
				// the key unchanged: v is final at du.
				if nd <= du {
					plateau = append(plateau, v)
					continue
				}
				tb := int64(nd*inv) % nBuckets
				sc.buckets[tb] = bqPush(sc.buckets[tb], bqEntry{nd, v})
				count++
				sc.Pushes++
			}
		}
		if count == 0 {
			break
		}
		slot := vb % nBuckets
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		// Labels only fall, so an entry above its vertex's label was
		// superseded; the one live entry per vertex equals it.
		if e.d > dist[e.v] {
			sc.Stale++
			continue
		}
		plateau = append(plateau, e.v)
	}
}
