package tvg

import (
	"slices"

	"repro/internal/interval"
)

// RemoveContact deletes every point of iv from the presence and the
// contacts of the edge (i, j). Contacts partially covered by iv are
// clipped (keeping their distance); a contact strictly containing iv
// splits in two. It reports whether the graph actually changed; no-op
// removals (empty iv, absent edge, interval disjoint from all recorded
// presence) leave the version untouched so downstream memo entries stay
// valid. When the last presence interval of a pair disappears the pair
// also leaves both ever-neighbor lists.
func (g *Graph) RemoveContact(i, j NodeID, iv interval.Interval) bool {
	if iv.Empty() {
		return false
	}
	if i == j {
		panic("tvg: self-loop contact")
	}
	g.checkNode(i)
	g.checkNode(j)
	a, existed := g.slot(i, j)
	if !existed {
		return false
	}
	old := g.pres[i][a]
	next := old.Subtract(iv)
	if next.Equal(old) {
		return false
	}
	b, _ := g.slot(j, i)
	if next.Empty() {
		g.deleteSlot(i, a)
		g.deleteSlot(j, b)
	} else {
		// Presence is the union of the contacts, so a changed presence
		// means some contact overlaps iv.
		segs := clip(g.segs[i][a], iv)
		g.pres[i][a], g.pres[j][b] = next, next
		g.segs[i][a], g.segs[j][b] = segs, segs
	}
	g.version++
	return true
}

// clip returns a fresh copy of segs without the points of iv; each
// clipped contact's pieces take its place.
func clip(segs []Segment, iv interval.Interval) []Segment {
	out := make([]Segment, 0, len(segs)+1)
	for _, s := range segs {
		if s.Iv.End <= iv.Start || s.Iv.Start >= iv.End {
			out = append(out, s)
			continue
		}
		if left := (interval.Interval{Start: s.Iv.Start, End: iv.Start}); !left.Empty() {
			out = append(out, Segment{left, s.Dist})
		}
		if right := (interval.Interval{Start: iv.End, End: s.Iv.End}); !right.Empty() {
			out = append(out, Segment{right, s.Dist})
		}
	}
	return out
}

// deleteSlot removes the k-th neighbor of i with its presence and
// contacts.
func (g *Graph) deleteSlot(i NodeID, k int) {
	g.neighbors[i] = slices.Delete(g.neighbors[i], k, k+1)
	g.pres[i] = slices.Delete(g.pres[i], k, k+1)
	g.segs[i] = slices.Delete(g.segs[i], k, k+1)
}
