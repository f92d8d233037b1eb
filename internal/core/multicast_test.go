package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func TestMulticastCoversOnlyTargets(t *testing.T) {
	// star with one far node: multicasting to {1} must not pay for 3.
	g := star(tveg.Static)
	sch, err := EEDCB{}.Multicast(g, 0, []tvg.NodeID{1}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Params.NoiseGamma() * 25 // only the d=5 neighbor
	if math.Abs(sch.TotalCost()-want)/want > 1e-9 {
		t.Errorf("multicast cost = %g, want %g (target only)", sch.TotalCost(), want)
	}
	// broadcast costs more (it must reach the d=15 node)
	full, err := EEDCB{}.Schedule(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sch.TotalCost() >= full.TotalCost() {
		t.Errorf("multicast %g should undercut broadcast %g", sch.TotalCost(), full.TotalCost())
	}
}

func TestMulticastTargetInformed(t *testing.T) {
	g := chain(tveg.Static)
	sch, err := EEDCB{}.Multicast(g, 0, []tvg.NodeID{2}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// node 2 needs the relay chain through 1
	if p := schedule.UninformedProb(g, sch, 0, 2, 100); p > g.Params.Eps {
		t.Errorf("target uninformed: p = %g", p)
	}
	if len(sch) != 2 {
		t.Errorf("schedule %v, want the 2-hop chain", sch)
	}
}

func TestMulticastUnreachableTarget(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	_, err := EEDCB{}.Multicast(g, 0, []tvg.NodeID{2}, 0, 100)
	var ie *IncompleteError
	if !errors.As(err, &ie) || len(ie.Uncovered) != 1 || ie.Uncovered[0] != 2 {
		t.Errorf("want node 2 uncovered, got %v", err)
	}
	// mixed: one reachable, one not → partial schedule + IncompleteError
	sch, err := EEDCB{}.Multicast(g, 0, []tvg.NodeID{1, 2}, 0, 100)
	if !errors.As(err, &ie) {
		t.Fatalf("want IncompleteError, got %v", err)
	}
	if p := schedule.UninformedProb(g, sch, 0, 1, 100); p > g.Params.Eps {
		t.Errorf("reachable target uninformed: p = %g", p)
	}
}

func TestFRMulticastSatisfiesEpsForTargets(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomTrace(r, 7, tveg.RayleighFading, 1000)
	targets := []tvg.NodeID{2, 5}
	sch, err := FREEDCB{}.Multicast(g, 0, targets, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range targets {
		if p := schedule.UninformedProb(g, sch, 0, n, 1000); p > g.Params.Eps*(1+1e-9) {
			t.Errorf("target %d residual failure %g > ε", n, p)
		}
	}
	// At the optimum multicast can never cost more than broadcast; the
	// heuristics can invert by a few percent (different Steiner terminal
	// sets steer different backbones), so only flag gross inversions.
	full, err := FREEDCB{}.Schedule(g, 0, 0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if sch.TotalCost() > full.TotalCost()*1.5 {
		t.Errorf("multicast %g grossly exceeds broadcast %g", sch.TotalCost(), full.TotalCost())
	}
}

func TestMulticastToSourceOnlyIsFree(t *testing.T) {
	g := chain(tveg.Static)
	sch, err := EEDCB{}.Multicast(g, 0, []tvg.NodeID{0}, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sch.TotalCost() != 0 {
		t.Errorf("self multicast cost = %g, want 0", sch.TotalCost())
	}
}

func TestFRAllocatorsAllFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomTrace(r, 7, tveg.RayleighFading, 1000)
	costs := map[Allocator]float64{}
	for _, alloc := range []Allocator{AllocGreedy, AllocDual} {
		sch, err := FREEDCB{Allocator: alloc}.Schedule(g, 0, 0, 1000)
		if err != nil {
			t.Fatalf("%v: %v", alloc, err)
		}
		if ferr := schedule.CheckFeasible(g, sch, 0, 1000, math.Inf(1)); ferr != nil {
			t.Errorf("%v: %v", alloc, ferr)
		}
		costs[alloc] = sch.TotalCost()
	}
	// dual falls back to the greedy solution, so it may not end up more
	// expensive
	if costs[AllocDual] > costs[AllocGreedy]*(1+1e-9) {
		t.Errorf("dual %g worse than greedy %g", costs[AllocDual], costs[AllocGreedy])
	}
}
