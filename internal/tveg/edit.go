package tveg

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/tvg"
)

// RemoveContact deletes every point of iv from the presence and the
// contacts of the edge (i, j) (tvg.Graph.RemoveContact). It reports
// whether the graph actually changed: no-op removals (absent edge,
// interval disjoint from all contacts) leave the version and every
// cost-set timeline untouched.
func (g *Graph) RemoveContact(i, j tvg.NodeID, iv interval.Interval) bool {
	if !g.Graph.RemoveContact(i, j, iv) {
		return false
	}
	g.cache.invalidatePair(i, j)
	return true
}

// RetimeChannel moves the contact of (i, j) that exactly spans from to
// the window to, keeping its distance. Retiming to the identical window
// is a no-op that leaves the version untouched. It fails when no contact
// spans exactly from, when from or to overlaps another contact of the
// pair (removing from's presence would cut into that contact), or when
// to is empty. The reported bool is whether the graph changed.
func (g *Graph) RetimeChannel(i, j tvg.NodeID, from, to interval.Interval) (bool, error) {
	if from == to {
		return false, nil
	}
	if to.Empty() {
		return false, fmt.Errorf("tveg: retime (%d,%d) to empty interval %v", i, j, to)
	}
	dist := 0.0
	found := false
	for _, s := range g.Contacts(i, j) {
		if s.Iv == from {
			dist = s.Dist
			found = true
			continue
		}
		if s.Iv.Overlaps(from) {
			return false, fmt.Errorf("tveg: retime (%d,%d): %v overlaps a different contact %v", i, j, from, s.Iv)
		}
		if s.Iv.Overlaps(to) {
			return false, fmt.Errorf("tveg: retime (%d,%d): target %v overlaps contact %v", i, j, to, s.Iv)
		}
	}
	if !found {
		return false, fmt.Errorf("tveg: retime (%d,%d): no contact spans exactly %v", i, j, from)
	}
	// Remove-then-add runs the same mutation code an explicit
	// RemoveContact/AddContact pair would, so a cold replay of the edit
	// sequence reconstructs byte-identical contacts.
	g.RemoveContact(i, j, from)
	g.AddContact(i, j, to, dist)
	return true, nil
}
