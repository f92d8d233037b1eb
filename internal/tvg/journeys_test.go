package tvg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// journeyGraph: two routes 0→3: a 3-hop chain available early, and a
// 1-hop direct contact available late.
func journeyGraph() *Graph {
	g := New(4, iv(0, 200), 1)
	g.AddContact(0, 1, iv(10, 20))
	g.AddContact(1, 2, iv(30, 40))
	g.AddContact(2, 3, iv(50, 60))
	g.AddContact(0, 3, iv(100, 120))
	return g
}

func TestForemostJourney(t *testing.T) {
	g := journeyGraph()
	j := g.ForemostJourney(0, 3, 0)
	if err := j.Validate(g); err != nil {
		t.Fatalf("foremost journey invalid: %v (%v)", err, j)
	}
	// chain arrives at 51 (depart 50 on edge 2-3, τ=1); direct at 101
	if got := j.Arrival(g); got != 51 {
		t.Errorf("foremost arrival = %g, want 51", got)
	}
	if len(j) != 3 {
		t.Errorf("foremost journey %v, want 3 hops", j)
	}
}

func TestForemostJourneyLateStart(t *testing.T) {
	g := journeyGraph()
	// starting at 25 the chain's first edge is gone: only direct remains
	j := g.ForemostJourney(0, 3, 25)
	if err := j.Validate(g); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if got := j.Arrival(g); got != 101 {
		t.Errorf("arrival = %g, want 101", got)
	}
	if len(j) != 1 {
		t.Errorf("journey %v, want direct hop", j)
	}
}

func TestForemostJourneyUnreachable(t *testing.T) {
	g := journeyGraph()
	if j := g.ForemostJourney(0, 3, 150); j != nil {
		t.Errorf("journey after all contacts should be nil, got %v", j)
	}
}

func TestForemostJourneySelf(t *testing.T) {
	g := journeyGraph()
	if j := g.ForemostJourney(2, 2, 0); len(j) != 0 {
		t.Errorf("self journey should be empty, got %v", j)
	}
}

func TestShortestJourneyPrefersFewHops(t *testing.T) {
	g := journeyGraph()
	j := g.ShortestJourney(0, 3, 0)
	if err := j.Validate(g); err != nil {
		t.Fatalf("invalid: %v (%v)", err, j)
	}
	// the direct hop (1 hop, arrives 101) beats the chain (3 hops, 51)
	if len(j) != 1 {
		t.Errorf("shortest journey %v, want the 1-hop direct contact", j)
	}
	if got := j.Arrival(g); got != 101 {
		t.Errorf("arrival = %g, want 101", got)
	}
}

func TestShortestJourneyUnreachable(t *testing.T) {
	g := journeyGraph()
	if j := g.ShortestJourney(0, 3, 150); j != nil {
		t.Errorf("want nil, got %v", j)
	}
	g2 := New(3, iv(0, 10), 0)
	g2.AddContact(0, 1, iv(0, 10))
	if j := g2.ShortestJourney(0, 2, 0); j != nil {
		t.Errorf("disconnected node reachable: %v", j)
	}
}

func TestFastestJourneyWaitsForDirectContact(t *testing.T) {
	g := journeyGraph()
	j := g.FastestJourney(0, 3, 0, 200)
	if err := j.Validate(g); err != nil {
		t.Fatalf("invalid: %v (%v)", err, j)
	}
	// departing at 100 on the direct edge: duration 1 (τ). The chain
	// departing at 10 takes 41.
	if dur := j.Arrival(g) - j.Departure(); dur != 1 {
		t.Errorf("fastest duration = %g, want 1", dur)
	}
}

func TestFastestJourneyRespectsWindowEnd(t *testing.T) {
	g := journeyGraph()
	// window ends before the direct contact completes: chain wins
	j := g.FastestJourney(0, 3, 0, 60)
	if err := j.Validate(g); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if len(j) != 3 {
		t.Errorf("journey %v, want the 3-hop chain", j)
	}
}

func TestReachability(t *testing.T) {
	g := journeyGraph()
	r := g.Reachability(0, 0, 60)
	want := []bool{true, true, true, true} // chain completes by 51
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reachability[%d] = %v, want %v", i, r[i], want[i])
		}
	}
	r = g.Reachability(0, 0, 40)
	if r[3] {
		t.Error("node 3 should be unreachable by t=40")
	}
	if !r[2] {
		t.Error("node 2 should be reachable by t=40 (arrives 31)")
	}
}

// TestReachabilityUnboundedWindow pins that an isolated node stays
// unreachable when the window never closes: unreachable arrivals are
// +Inf, not a finite sentinel that t2 = +Inf would admit.
func TestReachabilityUnboundedWindow(t *testing.T) {
	g := New(3, iv(0, 10), 0)
	g.AddContact(0, 1, iv(0, 10))
	r := g.Reachability(0, 0, math.Inf(1))
	if want := []bool{true, true, false}; !slices.Equal(r, want) {
		t.Errorf("Reachability(0, 0, +Inf) = %v, want %v", r, want)
	}
}

func TestReachabilityMatrix(t *testing.T) {
	g := journeyGraph()
	m := g.ReachabilityMatrix(0, 200)
	if !m[0][3] {
		t.Error("0 should reach 3 over the full window")
	}
	if !m[3][0] {
		t.Error("3 should reach 0 (direct contact is symmetric)")
	}
	// 3 cannot reach 1: after contact (0,3) at 100-120, edge (0,1) is
	// gone (ended at 20)
	if m[3][1] {
		t.Error("3 should not reach 1")
	}
	for i := range m {
		if !m[i][i] {
			t.Errorf("node %d should reach itself", i)
		}
	}
}

func TestQuickJourneysValid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6, 1)
		for s := 0; s < g.N(); s++ {
			for d := 0; d < g.N(); d++ {
				if s == d {
					continue
				}
				fm := g.ForemostJourney(NodeID(s), NodeID(d), 0)
				if fm != nil && fm.Validate(g) != nil {
					return false
				}
				sh := g.ShortestJourney(NodeID(s), NodeID(d), 0)
				if sh != nil && sh.Validate(g) != nil {
					return false
				}
				// reachability must agree between the two searches
				if (fm == nil) != (sh == nil) {
					return false
				}
				if fm != nil && sh != nil {
					// shortest has no more hops; foremost arrives no later
					if len(sh) > len(fm) {
						return false
					}
					if fm.Arrival(g) > sh.Arrival(g) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickFastestNoLongerThanForemost(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6, 1)
		for d := 1; d < g.N(); d++ {
			fm := g.ForemostJourney(0, NodeID(d), 0)
			fa := g.FastestJourney(0, NodeID(d), 0, 1000)
			if fm == nil {
				continue
			}
			if fa == nil {
				return false // foremost exists within the span: fastest must too
			}
			if fa.Validate(g) != nil {
				return false
			}
			durFast := fa.Arrival(g) - fa.Departure()
			durFore := fm.Arrival(g) - fm.Departure()
			if durFast > durFore+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuickReachabilityMonotoneInWindow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 6, 1)
		narrow := g.ReachabilityMatrix(100, 500)
		wide := g.ReachabilityMatrix(100, 900)
		for i := range narrow {
			for j := range narrow[i] {
				if narrow[i][j] && !wide[i][j] {
					return false // widening the window cannot lose reachability
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
