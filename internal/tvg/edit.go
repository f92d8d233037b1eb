package tvg

import (
	"slices"
	"sort"

	"repro/internal/interval"
)

// Edit is one entry of the graph's mutation journal: the canonical edge
// pair whose presence changed, and the version the mutation produced.
type Edit struct {
	Pair    EdgeKey
	Version uint64
}

// journalCap bounds the retained mutation history. A derivation that
// spans more edits than this falls back to a cold build, so the cap
// trades patch reach against the memory pinned per graph.
const journalCap = 128

// record appends a journal entry for the mutation that just bumped
// g.version, trimming the oldest history past journalCap. The trim
// reslices instead of copying the retained entries down, so a long run
// of edits (a trace replayed through AddContact) costs amortized O(1)
// per edit: append copies the live entries only when it reallocates.
func (g *Graph) record(k EdgeKey) {
	g.journal = append(g.journal, Edit{Pair: k, Version: g.version})
	if len(g.journal) > journalCap {
		drop := len(g.journal) - journalCap
		g.journalBase = g.journal[drop-1].Version
		g.journal = g.journal[drop:]
	}
}

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
	g.record(MakeEdgeKey(i, j))
	return true
}

// deleteSlot removes the k-th neighbor of i and its presence.
func (g *Graph) deleteSlot(i NodeID, k int) {
	g.neighbors[i] = slices.Delete(g.neighbors[i], k, k+1)
	g.pres[i] = slices.Delete(g.pres[i], k, k+1)
}

// Journal returns the retained mutation journal entries with
// Version > since, oldest first. The returned slice aliases internal
// state and must not be modified.
func (g *Graph) Journal(since uint64) []Edit {
	i := sort.Search(len(g.journal), func(i int) bool { return g.journal[i].Version > since })
	return g.journal[i:]
}

// EditsSince returns the distinct edge pairs whose presence changed
// between version v and the current version, in first-edit order.
// ok = false means the journal no longer covers that range (v predates
// the retained history, or is not an ancestor version of this graph)
// and the caller must treat every pair as potentially edited.
func (g *Graph) EditsSince(v uint64) ([]EdgeKey, bool) {
	if v > g.version || v < g.journalBase {
		return nil, false
	}
	var out []EdgeKey
	for _, e := range g.Journal(v) {
		dup := false
		for _, p := range out {
			if p == e.Pair {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, e.Pair)
		}
	}
	return out, true
}
