package auxgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dts"
	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/steiner"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

// chain builds 0—1—2 with sequential contacts so the broadcast must
// relay through node 1.
func chain() (*tveg.Graph, *dts.DTS) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(1, 2, iv(20, 50), 8)
	d, _ := dts.Build(g.Graph, 0, 100, dts.Options{})
	return g, d
}

// star builds a hub: 0 adjacent to 1,2,3 simultaneously at increasing
// distances, so the broadcast advantage pays off.
func star() (*tveg.Graph, *dts.DTS) {
	g := tveg.New(4, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(0, 2, iv(10, 30), 10)
	g.AddContact(0, 3, iv(10, 30), 15)
	d, _ := dts.Build(g.Graph, 0, 100, dts.Options{})
	return g, d
}

func TestBuildStats(t *testing.T) {
	g, d := chain()
	a, _ := Build(g, d, Options{})
	st := a.Stats()
	if st.Vertices <= 0 || st.Edges <= 0 {
		t.Fatalf("empty aux graph: %v", st)
	}
	if st.PowerVertices <= 0 {
		t.Errorf("expected power vertices, got %v", st)
	}
	// no-advantage variant has no power vertices
	a2, _ := Build(g, d, Options{NoBroadcastAdvantage: true})
	if got := a2.Stats().PowerVertices; got != 0 {
		t.Errorf("NoBroadcastAdvantage power vertices = %d, want 0", got)
	}
}

// solve plans a broadcast from src on a as the planners do: the
// shortest-path-tree heuristic at level 1, the level-ℓ recursive greedy
// Steiner approximation above, over every node's terminal, with the
// solution mapped back to a schedule in causal order.
func solve(g *tveg.Graph, a *Aux, src tvg.NodeID, level int) (schedule.Schedule, error) {
	solver := steiner.NewSolver(a.G).WithReverse(a.Reverse())
	defer solver.Release()
	terms := make([]int, g.N())
	for i := range terms {
		terms[i] = a.Vertex(tvg.NodeID(i), a.D.Last(tvg.NodeID(i)))
	}
	var (
		sol steiner.Solution
		err error
	)
	if level <= 1 {
		sol, err = solver.ShortestPathTree(a.SourceVertex(src), terms)
	} else {
		sol, err = solver.RecursiveGreedy(a.SourceVertex(src), terms, level)
	}
	if err != nil {
		return nil, err
	}
	return schedule.CausalSort(g, a.ScheduleFromSolution(sol), src, a.D.T0), nil
}

// unreachable returns the nodes whose terminal u_{i,h_i} the source
// cannot reach in the auxiliary graph: the nodes no schedule within the
// window can inform.
func unreachable(a *Aux, src tvg.NodeID) []tvg.NodeID {
	reach := a.G.Reachable(a.SourceVertex(src))
	var out []tvg.NodeID
	for i := range a.D.Points {
		n := tvg.NodeID(i)
		if !reach[a.Vertex(n, a.D.Last(n))] {
			out = append(out, n)
		}
	}
	return out
}

func TestFeasibleInstance(t *testing.T) {
	g, d := chain()
	a, _ := Build(g, d, Options{})
	if un := unreachable(a, 0); len(un) != 0 {
		t.Errorf("chain should be feasible from 0, unreachable: %v", un)
	}
	// From node 2 the reverse direction is infeasible: contact (0,1) at
	// [10,30) ends before... actually 2→1 at [20,50), 1→0 needs [10,30):
	// overlap [20,30) exists, so still feasible. Build a truly infeasible
	// case: isolate node 2 after the fact.
	g2 := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g2.AddContact(0, 1, iv(10, 30), 5)
	d2, _ := dts.Build(g2.Graph, 0, 100, dts.Options{})
	a2, _ := Build(g2, d2, Options{})
	un := unreachable(a2, 0)
	if len(un) != 1 || un[0] != 2 {
		t.Errorf("unreachable = %v, want [2]", un)
	}
}

func TestSolveChainProducesFeasibleSchedule(t *testing.T) {
	g, d := chain()
	a, _ := Build(g, d, Options{})
	for _, level := range []int{1, 2} {
		s, err := solve(g, a, 0, level)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if err := schedule.CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
			t.Errorf("level %d schedule infeasible: %v (schedule %v)", level, err, s)
		}
		// two hops needed
		if len(s) != 2 {
			t.Errorf("level %d schedule %v, want 2 transmissions", level, s)
		}
	}
}

func TestSolveStarUsesBroadcastAdvantage(t *testing.T) {
	g, d := star()
	a, _ := Build(g, d, Options{})
	s, err := solve(g, a, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// One transmission at the cost of the farthest neighbor should win:
	// cost = N0γ·15² < sum of three unicasts.
	wantCost := g.Params.NoiseGamma() * 225
	if got := s.TotalCost(); math.Abs(got-wantCost)/wantCost > 1e-9 {
		t.Errorf("cost = %g, want single max-power tx %g (schedule %v)", got, wantCost, s)
	}
	if len(s) != 1 {
		t.Errorf("schedule %v, want a single broadcast transmission", s)
	}
}

func TestNoBroadcastAdvantageCostsMore(t *testing.T) {
	g, d := star()
	withAdv, _ := Build(g, d, Options{})
	noAdv, _ := Build(g, d, Options{NoBroadcastAdvantage: true})
	s1, err1 := solve(g, withAdv, 0, 2)
	s2, err2 := solve(g, noAdv, 0, 2)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1.TotalCost() >= s2.TotalCost() {
		t.Errorf("advantage cost %g should beat unicast cost %g",
			s1.TotalCost(), s2.TotalCost())
	}
}

func TestScheduleCollapsesPowerLevels(t *testing.T) {
	g, d := star()
	a, _ := Build(g, d, Options{})
	s, err := solve(g, a, 0, 1) // SPT picks each terminal's own path
	if err != nil {
		t.Fatal(err)
	}
	// SPT uses three separate levels of the same (relay, time); they
	// must collapse into one transmission at max cost.
	if len(s) != 1 {
		t.Errorf("schedule %v, want 1 collapsed transmission", s)
	}
	wantCost := g.Params.NoiseGamma() * 225
	if math.Abs(s.TotalCost()-wantCost)/wantCost > 1e-9 {
		t.Errorf("collapsed cost = %g, want %g", s.TotalCost(), wantCost)
	}
}

func TestDeadlineExcludesLateTransmissions(t *testing.T) {
	g := tveg.New(2, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(50, 60), 5)
	// window ends before the contact: infeasible
	d, _ := dts.Build(g.Graph, 0, 40, dts.Options{})
	a, _ := Build(g, d, Options{})
	if un := unreachable(a, 0); len(un) != 1 {
		t.Errorf("unreachable = %v, want [1]", un)
	}
	if _, err := solve(g, a, 0, 2); err == nil {
		t.Error("Solve should fail when a node is unreachable")
	}
}

func TestTauShiftsReception(t *testing.T) {
	g := tveg.New(2, iv(0, 100), 5, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	d, _ := dts.Build(g.Graph, 0, 100, dts.Options{})
	a, _ := Build(g, d, Options{})
	s, err := solve(g, a, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := schedule.CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
		t.Errorf("schedule infeasible with τ=5: %v", err)
	}
}

func TestQuickSolvedSchedulesFeasible(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		g := tveg.New(n, iv(0, 300), 0, tveg.DefaultParams(), tveg.Static)
		// random contacts; ensure node 0 can reach everyone by adding a
		// late direct contact to each node
		for c := 0; c < 3*n; c++ {
			i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
			if i == j {
				continue
			}
			s := r.Float64() * 200
			g.AddContact(i, j, iv(s, s+10+r.Float64()*30), 1+r.Float64()*20)
		}
		for j := 1; j < n; j++ {
			s := 250 + r.Float64()*20
			g.AddContact(0, tvg.NodeID(j), iv(s, s+20), 1+r.Float64()*20)
		}
		d, _ := dts.Build(g.Graph, 0, 300, dts.Options{})
		a, _ := Build(g, d, Options{})
		sch, err := solve(g, a, 0, 2)
		if err != nil {
			return false
		}
		return schedule.CheckFeasible(g, sch, 0, 300, math.Inf(1)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickAdvantageNeverWorse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(3)
		g := tveg.New(n, iv(0, 200), 0, tveg.DefaultParams(), tveg.Static)
		for j := 1; j < n; j++ {
			s := r.Float64() * 100
			g.AddContact(0, tvg.NodeID(j), iv(s, s+80), 1+r.Float64()*20)
		}
		d, _ := dts.Build(g.Graph, 0, 200, dts.Options{})
		advA, _ := Build(g, d, Options{})
		uniA, _ := Build(g, d, Options{NoBroadcastAdvantage: true})
		adv, err1 := solve(g, advA, 0, 2)
		uni, err2 := solve(g, uniA, 0, 2)
		if err1 != nil || err2 != nil {
			return false
		}
		return adv.TotalCost() <= uni.TotalCost()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
