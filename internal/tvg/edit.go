package tvg

import (
	"slices"

	"repro/internal/interval"
)

// RemoveContact deletes every point of iv from the presence of the edge
// (i, j). It reports whether the presence actually changed; no-op
// removals (absent edge, interval disjoint from all recorded presence)
// leave the version untouched so downstream memo entries stay valid.
// When the last presence interval of a pair disappears the pair also
// leaves both ever-neighbor lists.
func (g *Graph) RemoveContact(i, j NodeID, iv interval.Interval) bool {
	if i == j {
		panic("tvg: self-loop contact")
	}
	g.checkNode(i)
	g.checkNode(j)
	if iv.Empty() {
		return false
	}
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
		g.pres[i][a], g.pres[j][b] = next, next
	}
	g.version++
	return true
}

// deleteSlot removes the k-th neighbor of i and its presence.
func (g *Graph) deleteSlot(i NodeID, k int) {
	g.neighbors[i] = slices.Delete(g.neighbors[i], k, k+1)
	g.pres[i] = slices.Delete(g.pres[i], k, k+1)
}
