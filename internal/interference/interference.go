// Package interference implements the protocol interference model — the
// second future-work direction named in §VIII. Two transmissions whose
// active windows [t, t+τ] overlap (simultaneous transmissions, for
// τ = 0) collide at any receiver that is in range of both transmitters:
// the receiver decodes neither packet.
//
// The package provides collision detection on schedules, a serializer
// that shifts colliding transmissions apart within their ET-law
// equivalence intervals, and a collision-aware Monte Carlo evaluator
// that finds each cluster's receivers once per call (DESIGN.md §7,
// "Link walks").
package interference

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Conflict names two schedule entries that can collide at a receiver.
type Conflict struct {
	K, L     int // indices into the schedule
	Receiver tvg.NodeID
}

func (c Conflict) String() string {
	return fmt.Sprintf("tx%d×tx%d@v%d", c.K, c.L, c.Receiver)
}

// overlaps reports whether two transmissions' active windows intersect.
func overlaps(a, b schedule.Transmission, tau, slot float64) bool {
	span := tau
	if span < slot {
		span = slot // τ=0 schedules still occupy one slot of airtime
	}
	lo := a.T
	if b.T > lo {
		lo = b.T
	}
	hi := a.T + span
	if b.T+span < hi {
		hi = b.T + span
	}
	return lo < hi || a.T == b.T
}

// Detect returns every pairwise conflict of the schedule on g: both
// transmissions active at once, from different relays, with a common
// node in range of both. slot is the airtime of one packet (used when
// τ = 0; pass e.g. the packet duration at the link rate).
func Detect(g *tveg.Graph, s schedule.Schedule, slot float64) []Conflict {
	tau := g.Tau()
	var out []Conflict
	for k := 0; k < len(s); k++ {
		for l := k + 1; l < len(s); l++ {
			a, b := s[k], s[l]
			if a.Relay == b.Relay || !overlaps(a, b, tau, slot) {
				continue
			}
			for j := 0; j < g.N(); j++ {
				nj := tvg.NodeID(j)
				if nj == a.Relay || nj == b.Relay {
					continue
				}
				if g.RhoTau(a.Relay, nj, a.T) && g.RhoTau(b.Relay, nj, b.T) {
					out = append(out, Conflict{K: k, L: l, Receiver: nj})
					break // one shared receiver is enough to flag the pair
				}
			}
		}
	}
	return out
}

// Serialize rewrites the schedule so that overlapping transmissions
// neither collide nor depend on each other, by delaying the later
// (causally ordered) one in steps of the airtime within its relay's
// current adjacency interval — the ET-law equivalence class, inside
// which coverage is unchanged. Two overlapping transmissions must
// separate when they share a potential receiver (collision) or when one
// delivers the packet to the other's relay (a relay cannot decode and
// forward within a single airtime — exactly what τ ≈ 0 non-stop chains
// pretend to do). It returns an error when a transmission cannot be
// moved without leaving its interval.
func Serialize(g *tveg.Graph, s schedule.Schedule, slot float64) (schedule.Schedule, error) {
	if !(slot > 0) { // NaN fails every comparison, so test the good case
		return nil, fmt.Errorf("interference: slot %g is not positive", slot)
	}
	out := make(schedule.Schedule, len(s))
	copy(out, s)
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	tau := g.Tau()
	span := tau
	if span < slot {
		span = slot
	}
	// Global fixpoint: each pass delays the later transmission of every
	// overlapping pair that needs separation; moving one transmission
	// can create new overlaps, so repeat until quiet. Each delay is at
	// least one airtime within a bounded interval, so the loop
	// terminates (the coverage check errors out before unbounded drift).
	maxPasses := 4*len(out) + 4
	for pass := 0; ; pass++ {
		if pass == maxPasses {
			return nil, fmt.Errorf("interference: serialization did not converge after %d passes", maxPasses)
		}
		moved := false
		for k := range out {
			for l := range out {
				if l == k || out[l].Relay == out[k].Relay {
					continue
				}
				// "l" must be the earlier transmission (index breaks
				// exact ties so exactly one direction applies).
				if out[l].T > out[k].T || (out[l].T == out[k].T && l > k) {
					continue
				}
				if !overlaps(out[l], out[k], tau, slot) {
					continue
				}
				if !sharesReceiver(g, out[l], out[k]) && !feedsRelay(g, out[l], out[k]) {
					continue
				}
				newT := out[l].T + span
				if !coverageUnchanged(g, out[k], newT) {
					return nil, fmt.Errorf("interference: cannot move tx (v%d@%g) to %g without changing coverage",
						out[k].Relay, out[k].T, newT)
				}
				out[k].T = newT
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out, nil
}

// feedsRelay reports whether transmission a delivers the packet to b's
// relay at sufficient power — i.e. b's firing may depend on a.
func feedsRelay(g *tveg.Graph, a, b schedule.Transmission) bool {
	if !g.RhoTau(a.Relay, b.Relay, a.T) {
		return false
	}
	return g.MinCost(a.Relay, b.Relay, a.T) <= a.W*(1+1e-12)
}

func sharesReceiver(g *tveg.Graph, a, b schedule.Transmission) bool {
	for j := 0; j < g.N(); j++ {
		nj := tvg.NodeID(j)
		if nj == a.Relay || nj == b.Relay {
			continue
		}
		if g.RhoTau(a.Relay, nj, a.T) && g.RhoTau(b.Relay, nj, b.T) {
			return true
		}
	}
	return false
}

// coverageUnchanged reports whether moving a transmission to newT keeps
// the same reachable neighbor set at the same costs (both times inside
// the same channel segments).
func coverageUnchanged(g *tveg.Graph, x schedule.Transmission, newT float64) bool {
	old := g.DCS(x.Relay, x.T)
	new_ := g.DCS(x.Relay, newT)
	if len(old) != len(new_) {
		return false
	}
	for i := range old {
		if old[i] != new_[i] {
			return false
		}
	}
	return true
}

// Evaluate runs the Monte Carlo executor with collision semantics.
// Transmissions whose airtimes overlap form a cluster that is in the air
// simultaneously: a transmission fires only if its relay was informed
// before the cluster (no decode-and-forward within one airtime), and a
// receiver in range of two or more fired transmitters of the cluster
// decodes nothing. Transmissions at the cluster's first instant always
// join it, so at τ = 0 with no positive slot simultaneous transmissions
// still collide, as Detect reports them. Deterministic per rng.
//
// Who is in range of whom, and at what failure probability, depends
// only on (graph, schedule): each cluster's receiver table is built once
// per call, and a trial only marks which members fire and counts them
// at each receiver.
func Evaluate(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, slot float64, trials int, rng *rand.Rand) (meanDelivery float64) {
	if trials <= 0 {
		panic(fmt.Sprintf("interference: non-positive trials %d", trials))
	}
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()
	tau := g.Tau()
	span := tau
	if span < slot {
		span = slot
	}

	// A link is one cluster member in range of receiver j: its row k of
	// ordered and its failure probability at j.
	type link struct {
		j       tvg.NodeID
		k       int
		failure float64
	}
	// Cluster c is the rows ordered[lo:hi] (transitive airtime overlap)
	// and its receivers recv[rlo:rhi], ascending; receiver r hears the
	// members links[off[r]:off[r+1]], in cluster order.
	type cluster struct{ lo, hi, rlo, rhi int }
	var (
		clusters []cluster
		recv     []tvg.NodeID
		off      []int
		links    []link
		rx       []tvg.NodeID
	)
	for k := 0; k < len(ordered); {
		end := ordered[k].T + span
		l := k + 1
		for l < len(ordered) && (ordered[l].T < end || ordered[l].T == ordered[k].T) {
			if t := ordered[l].T + span; t > end {
				end = t
			}
			l++
		}
		start := len(links)
		for m := k; m < l; m++ {
			x := ordered[m]
			rx = g.InRange(rx[:0], x.Relay, x.T)
			for _, j := range rx {
				links = append(links, link{j, m, g.EDAt(x.Relay, j, x.T).FailureProb(x.W)})
			}
		}
		// Members were appended in cluster order; the stable sort keeps
		// that order within each receiver.
		cl := links[start:]
		slices.SortStableFunc(cl, func(a, b link) int { return cmp.Compare(a.j, b.j) })
		c := cluster{lo: k, hi: l, rlo: len(recv)}
		for p, x := range cl {
			if p == 0 || x.j != cl[p-1].j {
				recv = append(recv, x.j)
				off = append(off, start+p)
			}
		}
		c.rhi = len(recv)
		clusters = append(clusters, c)
		k = l
	}
	off = append(off, len(links))

	informed := make([]bool, g.N())
	fires := make([]bool, len(ordered))
	var sum float64
	for trial := 0; trial < trials; trial++ {
		clear(informed)
		informed[src] = true
		for _, c := range clusters {
			// Phase 1: decide who fires from the pre-cluster state.
			for k := c.lo; k < c.hi; k++ {
				fires[k] = informed[ordered[k].Relay]
			}
			// Phase 2: deliveries with collisions.
			for r := c.rlo; r < c.rhi; r++ {
				j := recv[r]
				if informed[j] {
					continue
				}
				heard := -1
				for h := off[r]; h < off[r+1]; h++ {
					if !fires[links[h].k] {
						continue
					}
					if heard >= 0 {
						heard = -1 // collision
						break
					}
					heard = h
				}
				if heard < 0 {
					continue // silence or collision
				}
				failure := links[heard].failure
				if failure <= 0 || rng.Float64() >= failure {
					informed[j] = true
				}
			}
		}
		delivered := 0
		for _, ok := range informed {
			if ok {
				delivered++
			}
		}
		sum += float64(delivered) / float64(g.N())
	}
	return sum / float64(trials)
}
