package dts

import (
	"reflect"
	"testing"

	"repro/internal/tvg"
)

// otherLineGraph builds a graph with the same node count and the same
// number of AddContact calls as lineGraph (so its Version matches) but a
// different topology, hence a different DTS.
func otherLineGraph(tau float64) *tvg.Graph {
	g := tvg.New(4, iv(0, 100), tau)
	g.AddContact(0, 2, iv(5, 20))
	g.AddContact(2, 1, iv(15, 60))
	g.AddContact(1, 3, iv(50, 80))
	return g
}

// TestMemoNoAliasingAcrossIdentityReuse is the regression test for the
// pointer-keyed memo bug: the memo used to key on the *tvg.Graph
// pointer, and in a long-running process a collected graph's address can
// be recycled for a fresh graph — also at version 0 — so a lookup for
// the new graph silently returned the dead graph's DTS. The key now
// carries the process-unique monotonic Graph.ID instead.
//
// The test proves the old shape was reachable by forcing exactly the
// collision address recycling used to produce: two distinct graphs with
// identical identity, version, and window. Under the forced collision
// the memo serves graph A's (wrong) DTS for graph B; with real IDs it
// never does.
func TestMemoNoAliasingAcrossIdentityReuse(t *testing.T) {
	PurgeMemo()
	defer PurgeMemo()

	ga := lineGraph(0)
	gb := otherLineGraph(0)
	if ga.Version() != gb.Version() {
		t.Fatalf("test setup: versions differ (%d vs %d); the collision needs equal versions",
			ga.Version(), gb.Version())
	}

	da, err := Build(ga, 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for graph B, bypassing the cache entirely.
	fresh, err := Build(gb, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(da.Points, fresh.Points) {
		t.Fatal("test setup: the two graphs must have distinguishable DTS points")
	}

	// 1. The collision the pointer-keyed scheme allowed: recycle A's
	// identity onto B. The memo now has no way to tell them apart and
	// serves A's DTS for B — the exact stale-hit bug.
	gb.SetIDForTest(ga.ID())
	aliased, err := Build(gb, 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aliased != da {
		t.Fatal("forced identity collision did not reproduce the stale-hit shape; the regression test lost its teeth")
	}
	if reflect.DeepEqual(aliased.Points, fresh.Points) {
		t.Fatal("aliased hit accidentally matches graph B's true DTS")
	}

	// 2. With its real process-unique identity restored, graph B misses
	// A's entry and gets its own correct DTS.
	gb2 := otherLineGraph(0)
	db, err := Build(gb2, 0, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if db == da {
		t.Fatal("distinct graphs with unique IDs still collided in the memo")
	}
	if !reflect.DeepEqual(db.Points, fresh.Points) {
		t.Fatal("memoized build for graph B differs from its fresh build")
	}
}

// TestGraphIDsUniqueAndStable pins the identity contract the memo keys
// rely on: every New graph gets a fresh non-zero ID, and mutation does
// not change it (Version moves instead).
func TestGraphIDsUniqueAndStable(t *testing.T) {
	a := lineGraph(0)
	b := lineGraph(0)
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatal("graph IDs must be non-zero")
	}
	if a.ID() == b.ID() {
		t.Fatal("two graphs share an ID")
	}
	before := a.ID()
	a.AddContact(0, 3, iv(1, 2))
	if a.ID() != before {
		t.Fatal("AddContact changed the graph ID; invalidation must ride Version, not ID")
	}
}

// TestEditNeverHitsParentMemoEntry is the memo-invalidation table: an
// edited graph version must never be served the parent version's memo
// entry, for any edit kind.
func TestEditNeverHitsParentMemoEntry(t *testing.T) {
	cases := []struct {
		name string
		edit func(g *tvg.Graph) bool
	}{
		{"add-contact", func(g *tvg.Graph) bool {
			g.AddContact(0, 3, iv(60, 70))
			return true
		}},
		{"remove-contact", func(g *tvg.Graph) bool {
			return g.RemoveContact(0, 1, iv(10, 30))
		}},
		{"remove-partial", func(g *tvg.Graph) bool {
			return g.RemoveContact(1, 2, iv(30, 40))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			PurgeMemo()
			defer PurgeMemo()
			g := lineGraph(0)
			parent, err := Build(g, 0, 100, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !tc.edit(g) {
				t.Fatal("test setup: edit must change the graph")
			}
			hitsBefore, _ := MemoStats()
			got, err := Build(g, 0, 100, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hitsAfter, _ := MemoStats()
			if got == parent {
				t.Fatal("edited graph was served the parent's memo entry")
			}
			if hitsAfter != hitsBefore {
				t.Fatalf("edited version hit the memo (%d -> %d)", hitsBefore, hitsAfter)
			}
			want, err := Build(g, 0, 100, Options{NoMemo: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Fatal("post-edit memoized build differs from cold build")
			}
			// The parent's entry is still intact for the parent version —
			// invalidation is by key, not purge. (Rebuilding the pre-edit
			// graph shape would hit it; here we just check the entry count.)
			if memo.Len() < 2 {
				t.Fatalf("memo should hold parent and child entries, has %d", memo.Len())
			}
		})
	}
}
