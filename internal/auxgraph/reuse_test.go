package auxgraph

import (
	"testing"

	"repro/internal/dts"
	"repro/internal/tveg"
)

// editGraph builds a 5-node graph rich enough that edits leave most
// nodes untouched.
func editGraph() *tveg.Graph {
	g := tveg.New(5, iv(0, 200), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 40), 5)
	g.AddContact(1, 2, iv(30, 70), 8)
	g.AddContact(2, 3, iv(60, 100), 6)
	g.AddContact(3, 4, iv(90, 130), 9)
	g.AddContact(0, 4, iv(20, 50), 12)
	return g
}

// TestEditedVersionNeverHitsParentCoreEntry is the memo-invalidation
// table at the auxgraph layer: after any edit, Build must construct a
// new core — served the parent's entry would mean serving pre-edit cost
// sets and pre-edit time points.
func TestEditedVersionNeverHitsParentCoreEntry(t *testing.T) {
	cases := []struct {
		name string
		edit func(g *tveg.Graph)
	}{
		{"add", func(g *tveg.Graph) { g.AddContact(1, 4, iv(10, 30), 4) }},
		{"remove", func(g *tveg.Graph) { g.RemoveContact(0, 1, iv(10, 40)) }},
		{"retime", func(g *tveg.Graph) {
			if _, err := g.RetimeChannel(1, 2, iv(30, 70), iv(130, 170)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			PurgeMemo()
			dts.PurgeMemo()
			defer PurgeMemo()
			defer dts.PurgeMemo()

			g := editGraph()
			d0, err := dts.Build(g.Graph, 0, 200, dts.Options{})
			if err != nil {
				t.Fatal(err)
			}
			parentAux, err := Build(g, d0, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(g)
			d1, err := dts.Build(g.Graph, 0, 200, dts.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hitsBefore, _ := MemoStats()
			childAux, err := Build(g, d1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			hitsAfter, _ := MemoStats()
			if childAux.core == parentAux.core {
				t.Fatal("edited graph was served the parent version's core")
			}
			if hitsAfter != hitsBefore {
				t.Fatalf("edited version hit the core memo (%d -> %d)", hitsBefore, hitsAfter)
			}
			// Same instance again: now it hits, and hits its OWN entry.
			again, err := Build(g, d1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if again.core != childAux.core {
				t.Fatal("rebuild of the same edited instance missed its own entry")
			}
		})
	}
}

// TestNoMemoHoldsOnEditPath pins the opt-out on the edit path: a NoMemo
// build after an edit neither reads the core memo nor stores its core,
// so the next memoized build of the same instance still misses.
func TestNoMemoHoldsOnEditPath(t *testing.T) {
	PurgeMemo()
	dts.PurgeMemo()
	defer PurgeMemo()
	defer dts.PurgeMemo()

	g := editGraph()
	d0, err := dts.Build(g.Graph, 0, 200, dts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(g, d0, Options{}); err != nil {
		t.Fatal(err)
	}
	g.AddContact(1, 3, iv(45, 80), 7)
	d1, err := dts.Build(g.Graph, 0, 200, dts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := MemoStats()
	if _, err := Build(g, d1, Options{NoMemo: true}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := MemoStats()
	if h1 != h0 || m1 != m0 {
		t.Fatalf("NoMemo build moved memo stats (%d,%d) -> (%d,%d)", h0, m0, h1, m1)
	}
	if _, err := Build(g, d1, Options{}); err != nil {
		t.Fatal(err)
	}
	if h2, m2 := MemoStats(); h2 != h1 || m2 != m1+1 {
		t.Fatalf("memoized build after a NoMemo build moved memo stats (%d,%d) -> (%d,%d), want one miss",
			h1, m1, h2, m2)
	}
}
