package tvg

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/interval"
)

func TestRemoveContactClipsPresence(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 100}, 1)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 40}, 1)
	v := g.Version()

	if !g.RemoveContact(0, 1, interval.Interval{Start: 20, End: 30}) {
		t.Fatal("RemoveContact of a covered interval must report a change")
	}
	if g.Version() != v+1 {
		t.Errorf("version = %d, want %d", g.Version(), v+1)
	}
	want := interval.NewSet(interval.Interval{Start: 10, End: 20}, interval.Interval{Start: 30, End: 40})
	if !g.Presence(0, 1).Equal(want) {
		t.Errorf("presence = %v, want %v", g.Presence(0, 1), want)
	}
	// The pair still shares presence, so the ever-neighbor lists keep it.
	if len(g.EverNeighbors(0)) != 1 || g.EverNeighbors(0)[0] != 1 {
		t.Errorf("EverNeighbors(0) = %v, want [1]", g.EverNeighbors(0))
	}
}

func TestRemoveContactNoOps(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 100}, 1)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 40}, 1)
	v := g.Version()

	cases := []struct {
		name string
		i, j NodeID
		iv   interval.Interval
	}{
		{"absent edge", 2, 3, interval.Interval{Start: 0, End: 50}},
		{"disjoint interval", 0, 1, interval.Interval{Start: 50, End: 60}},
		{"empty interval", 0, 1, interval.Interval{Start: 20, End: 20}},
		{"touching endpoint", 0, 1, interval.Interval{Start: 40, End: 45}},
	}
	for _, c := range cases {
		if g.RemoveContact(c.i, c.j, c.iv) {
			t.Errorf("%s: RemoveContact reported a change", c.name)
		}
		if g.Version() != v {
			t.Errorf("%s: version bumped to %d on a no-op", c.name, g.Version())
		}
	}
}

func TestRemoveContactEmptiesPairDropsNeighbors(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 100}, 1)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 40}, 1)
	g.AddContact(0, 2, interval.Interval{Start: 5, End: 15}, 1)

	if !g.RemoveContact(1, 0, interval.Interval{Start: 0, End: 100}) {
		t.Fatal("RemoveContact must report the change")
	}
	if !g.Presence(0, 1).Empty() {
		t.Errorf("presence(0,1) = %v, want empty", g.Presence(0, 1))
	}
	if got := g.EverNeighbors(0); len(got) != 1 || got[0] != 2 {
		t.Errorf("EverNeighbors(0) = %v, want [2]", got)
	}
	if got := g.EverNeighbors(1); len(got) != 0 {
		t.Errorf("EverNeighbors(1) = %v, want []", got)
	}
	// Re-adding resurrects the pair in sorted order.
	g.AddContact(0, 1, interval.Interval{Start: 50, End: 60}, 1)
	if got := g.EverNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("EverNeighbors(0) after re-add = %v, want [1 2]", got)
	}
}

// presenceModel is the reference the per-node presence slots are
// differentially tested against: one map entry per canonical pair, as
// the graph stored presence before the slots.
type presenceModel struct {
	n       int
	sets    map[[2]NodeID]interval.Set
	version uint64
}

// pairKey returns the canonical model key of the pair (i, j).
func pairKey(i, j NodeID) [2]NodeID {
	return [2]NodeID{min(i, j), max(i, j)}
}

func (m *presenceModel) add(i, j NodeID, iv interval.Interval) {
	if iv.Empty() {
		return
	}
	k := pairKey(i, j)
	m.sets[k] = m.sets[k].Add(iv)
	m.version++
}

func (m *presenceModel) remove(i, j NodeID, iv interval.Interval) bool {
	k := pairKey(i, j)
	old, ok := m.sets[k]
	if !ok || iv.Empty() {
		return false
	}
	next := old.Subtract(iv)
	if next.Equal(old) {
		return false
	}
	if next.Empty() {
		delete(m.sets, k)
	} else {
		m.sets[k] = next
	}
	m.version++
	return true
}

// neighbors returns the model's sorted ever-neighbors of i.
func (m *presenceModel) neighbors(i NodeID) []NodeID {
	var out []NodeID
	for j := NodeID(0); int(j) < m.n; j++ {
		if _, ok := m.sets[pairKey(i, j)]; ok && j != i {
			out = append(out, j)
		}
	}
	return out
}

// TestPresenceSlotsMatchMapModel applies seeded random AddContact and
// RemoveContact sequences, including removals that empty a pair, and
// checks after every operation that both halves of every pair's
// presence and contact slots agree with each other and the presence
// with the map model, that the presence is the union of the pair's
// contacts, that the ever-neighbor lists are the model's sorted
// neighbor sets, and that the version and RemoveContact's change
// report match.
func TestPresenceSlotsMatchMapModel(t *testing.T) {
	span := interval.Interval{Start: 0, End: 100}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(7)
		g := New(n, span, 0.5)
		m := &presenceModel{n: n, sets: make(map[[2]NodeID]interval.Set)}
		for op := 0; op < 200; op++ {
			i := NodeID(r.Intn(n))
			j := NodeID((int(i) + 1 + r.Intn(n-1)) % n)
			start := r.Float64() * 90
			iv := interval.Interval{Start: start, End: start + r.Float64()*20}
			switch r.Intn(3) {
			case 0:
				g.AddContact(i, j, iv, 1+r.Float64()*10)
				m.add(i, j, iv)
			case 1:
				if got, want := g.RemoveContact(i, j, iv), m.remove(i, j, iv); got != want {
					t.Fatalf("seed %d op %d: RemoveContact(%d,%d,%v) = %v, want %v", seed, op, i, j, iv, got, want)
				}
			default:
				// Removing the whole span empties the pair.
				if got, want := g.RemoveContact(i, j, span), m.remove(i, j, span); got != want {
					t.Fatalf("seed %d op %d: RemoveContact(%d,%d,span) = %v, want %v", seed, op, i, j, got, want)
				}
			}
			if g.Version() != m.version {
				t.Fatalf("seed %d op %d: version %d, want %d", seed, op, g.Version(), m.version)
			}
			for a := NodeID(0); int(a) < n; a++ {
				if got, want := g.EverNeighbors(a), m.neighbors(a); !slices.Equal(got, want) {
					t.Fatalf("seed %d op %d: EverNeighbors(%d) = %v, want %v", seed, op, a, got, want)
				}
				for b := NodeID(0); int(b) < n; b++ {
					if a == b {
						continue
					}
					want := m.sets[pairKey(a, b)]
					if got := g.Presence(a, b); !got.Equal(want) || !got.Equal(g.Presence(b, a)) {
						t.Fatalf("seed %d op %d: Presence(%d,%d) = %v, Presence(%d,%d) = %v, want %v",
							seed, op, a, b, got, b, a, g.Presence(b, a), want)
					}
					segs := g.Segments(a, b)
					if !slices.Equal(segs, g.Segments(b, a)) {
						t.Fatalf("seed %d op %d: Segments(%d,%d) = %v, Segments(%d,%d) = %v",
							seed, op, a, b, segs, b, a, g.Segments(b, a))
					}
					var union interval.Set
					for _, s := range segs {
						union = union.Add(s.Iv)
					}
					if !union.Equal(want) {
						t.Fatalf("seed %d op %d: contacts of (%d,%d) cover %v, presence %v", seed, op, a, b, union, want)
					}
				}
			}
		}
	}
}
