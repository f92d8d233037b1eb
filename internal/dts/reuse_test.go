package dts

import (
	"reflect"
	"testing"

	"repro/internal/tvg"
)

// TestReuseGateRejectsEditedGraph is the Options.Reuse staleness
// regression: a DTS built before an edit must not short-circuit a build
// after it — the degradation ladder hands reused DTS values straight to
// auxgraph.Build, which would then enumerate pre-edit time points.
func TestReuseGateRejectsEditedGraph(t *testing.T) {
	g := lineGraph(0)
	d, err := Build(g, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	// Same graph, same version: the seam works.
	got, err := Build(g, 0, 100, Options{Reuse: d, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Fatal("unedited graph must reuse the provided DTS")
	}
	// Window mismatch still falls through.
	got, err = Build(g, 0, 90, Options{Reuse: d, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if got == d {
		t.Fatal("window mismatch must not reuse")
	}
	// After an edit the reused DTS is stale and must be rejected.
	g.AddContact(0, 3, iv(60, 70))
	got, err = Build(g, 0, 100, Options{Reuse: d, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if got == d {
		t.Fatal("edited graph reused a pre-edit DTS")
	}
	want, err := Build(g, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatal("post-edit build with stale Reuse differs from cold build")
	}
}

// TestReuseGateRejectsForeignAndHandMadeDTS pins the rest of the gate:
// a DTS from a different graph and a hand-constructed DTS (ID 0, no
// lineage) never short-circuit.
func TestReuseGateRejectsForeignAndHandMadeDTS(t *testing.T) {
	ga := lineGraph(0)
	gb := otherLineGraph(0)
	da, err := Build(ga, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(gb, 0, 100, Options{Reuse: da, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if got == da {
		t.Fatal("graph B reused graph A's DTS")
	}
	hand := &DTS{T0: 0, Deadline: 100, Points: da.Points}
	got, err = Build(ga, 0, 100, Options{Reuse: hand, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if got == hand {
		t.Fatal("hand-constructed DTS (no lineage) was reused")
	}
}

// TestReuseGateStaleShapeForced mirrors the SetIDForTest aliasing tests:
// it forges a pre-edit DTS into the edited graph's lineage to prove the
// stale shape the version check closes off is real — the forged reuse
// serves time points that miss the new contact entirely.
func TestReuseGateStaleShapeForced(t *testing.T) {
	g := lineGraph(0)
	d, err := Build(g, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	g.AddContact(0, 3, iv(60, 70))
	want, err := Build(g, 0, 100, Options{NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(d.Points, want.Points) {
		t.Fatal("test setup: the edit must change the DTS")
	}

	// Forge the lineage the gate trusts. The stale DTS now passes and
	// Build hands back pre-edit points — the exact harm.
	d.SetLineageForTest(g.ID(), g.Version())
	stale, err := Build(g, 0, 100, Options{Reuse: d, NoMemo: true})
	if err != nil {
		t.Fatal(err)
	}
	if stale != d {
		t.Fatal("forged lineage did not reproduce the stale-reuse shape; the regression test lost its teeth")
	}
	if reflect.DeepEqual(stale.Points, want.Points) {
		t.Fatal("stale reuse accidentally matches the edited graph's DTS")
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
