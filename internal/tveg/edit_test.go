package tveg

import (
	"math"
	"testing"

	"repro/internal/interval"
)

func TestRemoveContactClipsSegments(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 60}, 5)
	g.AddContact(0, 1, interval.Interval{Start: 80, End: 120}, 8)
	v := g.Version()

	if !g.RemoveContact(0, 1, interval.Interval{Start: 30, End: 40}) {
		t.Fatal("RemoveContact must report the change")
	}
	if g.Version() != v+1 {
		t.Errorf("version = %d, want %d", g.Version(), v+1)
	}
	// The first contact splits; both halves keep distance 5.
	for _, probe := range []struct {
		t    float64
		dist float64
		ok   bool
	}{{15, 5, true}, {35, 0, false}, {45, 5, true}, {100, 8, true}} {
		s, ok := g.SegmentAt(0, 1, probe.t)
		if ok != probe.ok {
			t.Errorf("SegmentAt(%g): ok = %v, want %v", probe.t, ok, probe.ok)
			continue
		}
		if ok && s.Dist != probe.dist {
			t.Errorf("SegmentAt(%g): dist = %g, want %g", probe.t, s.Dist, probe.dist)
		}
	}
	// MinCost at a removed time is +Inf; presence and segments agree.
	if w := g.MinCost(0, 1, 35); !math.IsInf(w, 1) {
		t.Errorf("MinCost at removed time = %g, want +Inf", w)
	}
	if g.Rho(0, 1, 35) {
		t.Error("presence must be gone at a removed time")
	}
}

func TestRemoveContactNoOpKeepsVersion(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 60}, 5)
	v := g.Version()
	if g.RemoveContact(0, 1, interval.Interval{Start: 100, End: 120}) {
		t.Error("disjoint removal must be a no-op")
	}
	if g.RemoveContact(2, 3, interval.Interval{Start: 0, End: 200}) {
		t.Error("absent-edge removal must be a no-op")
	}
	if g.Version() != v {
		t.Errorf("no-op removal bumped version to %d", g.Version())
	}
}

func TestRetimeChannel(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 30}, 5)
	g.AddContact(0, 1, interval.Interval{Start: 50, End: 70}, 8)
	v := g.Version()

	changed, err := g.RetimeChannel(0, 1, interval.Interval{Start: 10, End: 30}, interval.Interval{Start: 100, End: 130})
	if err != nil || !changed {
		t.Fatalf("RetimeChannel = %v, %v, want changed", changed, err)
	}
	if g.Version() <= v {
		t.Error("retime must bump the version")
	}
	if s, ok := g.SegmentAt(0, 1, 110); !ok || s.Dist != 5 {
		t.Errorf("retimed segment at 110: %+v, %v — want dist 5", s, ok)
	}
	if _, ok := g.SegmentAt(0, 1, 20); ok {
		t.Error("old window still has a segment after retime")
	}
	if s, ok := g.SegmentAt(0, 1, 60); !ok || s.Dist != 8 {
		t.Errorf("unrelated segment disturbed: %+v, %v", s, ok)
	}
}

func TestRetimeChannelNoOpAndErrors(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 30}, 5)
	g.AddContact(0, 1, interval.Interval{Start: 50, End: 70}, 8)
	v := g.Version()

	// Identical window: no-op, no version bump, no error.
	changed, err := g.RetimeChannel(0, 1, interval.Interval{Start: 10, End: 30}, interval.Interval{Start: 10, End: 30})
	if changed || err != nil {
		t.Errorf("identity retime = %v, %v, want no-op", changed, err)
	}

	cases := []struct {
		name     string
		from, to interval.Interval
	}{
		{"no exact segment", interval.Interval{Start: 10, End: 29}, interval.Interval{Start: 100, End: 120}},
		{"target overlaps other contact", interval.Interval{Start: 10, End: 30}, interval.Interval{Start: 60, End: 80}},
		{"empty target", interval.Interval{Start: 10, End: 30}, interval.Interval{Start: 100, End: 100}},
	}
	for _, c := range cases {
		changed, err := g.RetimeChannel(0, 1, c.from, c.to)
		if changed || err == nil {
			t.Errorf("%s: RetimeChannel = %v, %v, want error", c.name, changed, err)
		}
	}
	if g.Version() != v {
		t.Errorf("failed retimes bumped version to %d", g.Version())
	}
}

func TestRetimeOverlappingFromRejected(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 30}, 5)
	g.AddContact(0, 1, interval.Interval{Start: 20, End: 40}, 8)
	// from matches the first segment exactly but overlaps the second:
	// removing its presence would corrupt the overlapping contact, so the
	// retime must refuse.
	if changed, err := g.RetimeChannel(0, 1, interval.Interval{Start: 10, End: 30}, interval.Interval{Start: 100, End: 120}); changed || err == nil {
		t.Errorf("retime of presence-shared segment = %v, %v, want error", changed, err)
	}
}

// TestEditInvalidatesOnlyAffectedCacheEntries pins the selective
// invalidation contract: an edit to (a, b) drops the cost-set timelines
// of a and b and nothing else.
func TestEditInvalidatesOnlyAffectedCacheEntries(t *testing.T) {
	g := New(4, interval.Interval{Start: 0, End: 200}, 0, DefaultParams(), Static)
	g.EnableCostCache()
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 60}, 5)
	g.AddContact(2, 3, interval.Interval{Start: 10, End: 60}, 7)

	// Populate the cache for both pairs.
	w01 := g.MinCost(0, 1, 20)
	w23 := g.MinCost(2, 3, 20)
	g.DCS(0, 20)
	g.DCS(2, 20)
	st, _ := g.CostCacheStats()
	baseMisses := st.MinCostMisses

	// Edit (0,1): its cached cost must be recomputed and change; the
	// (2,3) entries must survive and keep serving hits.
	if !g.RemoveContact(0, 1, interval.Interval{Start: 10, End: 60}) {
		t.Fatal("removal must change the graph")
	}
	if w := g.MinCost(0, 1, 20); !math.IsInf(w, 1) || w == w01 {
		t.Errorf("post-edit MinCost(0,1) = %g, want +Inf (was %g)", w, w01)
	}
	if w := g.MinCost(2, 3, 20); w != w23 {
		t.Errorf("untouched pair's cost changed: %g != %g", w, w23)
	}
	st2, _ := g.CostCacheStats()
	if st2.MinCostMisses != baseMisses+1 {
		t.Errorf("misses went %d -> %d, want exactly one new miss (edited pair only)",
			baseMisses, st2.MinCostMisses)
	}
	if st2.MinCostHits == st.MinCostHits {
		t.Error("untouched pair should have served a cache hit")
	}
	// DCS of an edited endpoint reads the piece the MinCost query above
	// refilled (0 lost its only neighbor); DCS of an untouched node
	// still hits.
	if lv := g.DCS(0, 20); len(lv) != 0 {
		t.Errorf("DCS(0) after removal = %v, want empty", lv)
	}
	st2, _ = g.CostCacheStats()
	dcsHits := st2.DCSHits
	g.DCS(2, 20)
	st3, _ := g.CostCacheStats()
	if st3.DCSHits != dcsHits+1 {
		t.Error("DCS entry of untouched node was invalidated")
	}
}
