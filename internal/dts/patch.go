package dts

import (
	"fmt"
	"sync/atomic"

	"repro/internal/parallel"
	"repro/internal/tvg"
)

// The edit patch derives the DTS of an edited graph version from a
// memoized ancestor instead of rebuilding cold. The global point list
// (adjacency breakpoints + the +kτ closure) is recomputed from scratch —
// it is cheap and recomputation guarantees the patched DTS picks exactly
// the deduplication representatives a cold build would. The expensive
// stage, the per-node O(N·|global|) degree-filter sweep, is where the
// reuse happens: a node not incident to any edited pair has an unchanged
// degree function, so every filter decision recorded in the ancestor's
// membership bitset still holds and is inherited without touching the
// graph. Only edited endpoints, and global points that did not exist in
// the ancestor (no bit to inherit), are re-queried. The result is
// byte-identical to a cold Build at the new version: the point values
// come from the recomputed global list and the per-node assembly runs
// the same dedupSorted code over the same selected points.

// maxPatchDepth bounds how many versions back Build probes the memo for
// a patchable ancestor. Probing is a memo lookup per version, so the
// bound caps both the probe cost and how much accumulated edit history
// a single patch folds in.
const maxPatchDepth = 16

var patchHits, patchMisses atomic.Int64

// PatchStats returns the process-wide patched-build/cold-build counters
// (memoized builds only: memo hits and NoMemo builds count as neither).
func PatchStats() (hits, misses int64) {
	return patchHits.Load(), patchMisses.Load()
}

// tryPatch looks for a memoized ancestor of g within maxPatchDepth
// versions and derives the current version's DTS from it. It returns
// (nil, nil) when no ancestor is usable — the caller falls back to a
// cold build.
func tryPatch(g *tvg.Graph, t0, deadline float64, key memoKey, opts Options) (*DTS, error) {
	cur := g.Version()
	for back := uint64(1); back <= maxPatchDepth && back <= cur; back++ {
		pk := key
		pk.version = cur - back
		parent, ok := memo.Get(pk)
		if !ok {
			continue
		}
		if parent.member == nil {
			return nil, nil
		}
		pairs, ok := g.EditsSince(pk.version)
		if !ok {
			// The journal no longer covers this range; older ancestors
			// are out of reach too.
			return nil, nil
		}
		return patch(g, parent, pairs, t0, deadline, opts)
	}
	return nil, nil
}

// patch builds the DTS for g's current version from parent, given the
// edge pairs edited since the parent was built.
func patch(g *tvg.Graph, parent *DTS, edits []tvg.EdgeKey, t0, deadline float64, opts Options) (*DTS, error) {
	sp := opts.Obs.StartPhase("dts-patch")
	defer sp.End()
	tok := opts.Cancel
	n := g.N()
	maxHops := opts.MaxHops
	if maxHops <= 0 {
		maxHops = n - 1
	}
	base, global, err := globalPoints(g, t0, deadline, maxHops, tok)
	if err != nil {
		return nil, err
	}
	edited := make([]bool, n)
	for _, p := range edits {
		edited[p.A] = true
		edited[p.B] = true
	}
	words := (len(global) + 63) / 64
	pts := make([][]float64, n)
	member := make([][]uint64, n)
	var reused, fresh atomic.Int64
	err = parallel.ForEach(opts.Obs.Pool("dts.patch"), tok, opts.Workers, n, func(i int) {
		var bits []uint64
		var mine []float64
		if edited[i] {
			// An endpoint of an edited pair: its degree function changed,
			// so every filter decision is recomputed (the cold code).
			mine, bits = filterNode(g, tvg.NodeID(i), global, opts.NoPrune)
			fresh.Add(int64(len(global)))
		} else {
			// Unedited node: its degree function is untouched by the
			// edits, so filter decisions recorded in the ancestor carry
			// over for every global point both versions share. A
			// merge-walk pairs the two sorted lists; points new to this
			// version (or whose dedup representative shifted) have no bit
			// to inherit and are queried fresh.
			bits = make([]uint64, words)
			pg := parent.global
			pm := parent.member[i]
			nr, nf := 0, 0
			q := 0
			for p, x := range global {
				for q < len(pg) && pg[q] < x {
					q++
				}
				var keep bool
				//tmedbvet:ignore floateq membership reuse requires bitwise-identical points: a tolerant match could inherit a filter decision taken at a different time
				if q < len(pg) && pg[q] == x {
					keep = pm[q>>6]&(1<<uint(q&63)) != 0
					nr++
				} else {
					keep = opts.NoPrune || g.DegreeAt(tvg.NodeID(i), x) > 0
					nf++
				}
				if keep {
					mine = append(mine, x)
					bits[p>>6] |= 1 << uint(p&63)
				}
			}
			reused.Add(int64(nr))
			fresh.Add(int64(nf))
		}
		mine = append(mine, t0, deadline)
		pts[i] = dedupSorted(mine)
		member[i] = bits
	})
	if err != nil {
		return nil, fmt.Errorf("dts: patch sweep: %w", err)
	}
	d := &DTS{T0: t0, Deadline: deadline, Points: pts, id: nextDTSID.Add(1),
		gid: g.ID(), gver: g.Version(), global: global, member: member,
		parentID: parent.id, parentVersion: parent.gver}
	sp.SetInt("base_points", len(base))
	sp.SetInt("global_points", len(global))
	sp.SetInt("total_points", d.TotalPoints())
	sp.SetInt("points_reused", int(reused.Load()))
	sp.SetInt("points_fresh", int(fresh.Load()))
	return d, nil
}
