package schedule

import (
	"errors"
	"math"
	"testing"

	"repro/internal/interval"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

// chainGraph: 0—1—2 chain, always connected, distances 5 and 10, τ=1.
func chainGraph(m tveg.Model) *tveg.Graph {
	g := tveg.New(3, iv(0, 100), 1, tveg.DefaultParams(), m)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 10)
	return g
}

func TestVectorsAndCost(t *testing.T) {
	s := Schedule{{0, 5, 2}, {1, 10, 3}}
	if s.TotalCost() != 5 {
		t.Errorf("TotalCost = %g, want 5", s.TotalCost())
	}
	if s.NormalizedCost(2.5) != 2 {
		t.Errorf("NormalizedCost = %g, want 2", s.NormalizedCost(2.5))
	}
	if lat := s.Latency(1); lat != 11 {
		t.Errorf("Latency = %g, want 11", lat)
	}
	if (Schedule{}).Latency(1) != 0 {
		t.Error("empty schedule latency should be 0")
	}
}

func TestSortByTime(t *testing.T) {
	s := Schedule{{2, 30, 1}, {0, 5, 1}, {1, 10, 1}}
	s.SortByTime()
	if s[0].Relay != 0 || s[1].Relay != 1 || s[2].Relay != 2 {
		t.Errorf("SortByTime = %v", s)
	}
}

func TestUninformedProbStatic(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	s := Schedule{{0, 5, w01}}
	// source always informed
	if p := UninformedProb(g, s, 0, 0, 0); p != 0 {
		t.Errorf("p_src = %g, want 0", p)
	}
	// before the transmission node 1 is uninformed
	if p := UninformedProb(g, s, 0, 1, 4); p != 1 {
		t.Errorf("p_1 before tx = %g, want 1", p)
	}
	// after a sufficient transmission: informed
	if p := UninformedProb(g, s, 0, 1, 5); p != 0 {
		t.Errorf("p_1 after tx = %g, want 0", p)
	}
	// insufficient power: still uninformed
	weak := Schedule{{0, 5, w01 * 0.5}}
	if p := UninformedProb(g, weak, 0, 1, 50); p != 1 {
		t.Errorf("p_1 weak tx = %g, want 1", p)
	}
	// node 2 unaffected by 0's transmission (no edge 0-2)
	if p := UninformedProb(g, s, 0, 2, 50); p != 1 {
		t.Errorf("p_2 = %g, want 1", p)
	}
}

func TestUninformedProbFadingMultiplies(t *testing.T) {
	g := chainGraph(tveg.RayleighFading)
	ed := g.EDAt(0, 1, 5)
	w := ed.MinCost(0.3) // failure prob 0.3 per tx
	s := Schedule{{0, 5, w}, {0, 10, w}}
	p := UninformedProb(g, s, 0, 1, 20)
	if math.Abs(p-0.09) > 1e-9 {
		t.Errorf("p after two tx = %g, want 0.09", p)
	}
	// only the first counts at t=7
	p = UninformedProb(g, s, 0, 1, 7)
	if math.Abs(p-0.3) > 1e-9 {
		t.Errorf("p after one tx = %g, want 0.3", p)
	}
}

func TestUninformedProbIgnoresOwnTransmissions(t *testing.T) {
	g := chainGraph(tveg.Static)
	s := Schedule{{1, 5, 1e6}}
	if p := UninformedProb(g, s, 0, 1, 50); p != 1 {
		t.Errorf("node's own tx should not inform it, p = %g", p)
	}
}

func TestUninformedProbs(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	s := Schedule{{0, 5, w01}}
	for i, want := range []float64{0, 0, 1} {
		if p := UninformedProb(g, s, 0, tvg.NodeID(i), 50); p != want {
			t.Errorf("UninformedProb(v%d) = %g, want %g", i, p, want)
		}
	}
}

func TestCheckFeasibleHappyPath(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	w12 := g.MinCost(1, 2, 10)
	s := Schedule{{0, 5, w01}, {1, 10, w12}}
	if err := CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
}

func TestCheckFeasibleConditionI(t *testing.T) {
	g := chainGraph(tveg.Static)
	w12 := g.MinCost(1, 2, 10)
	// relay 1 transmits before being informed
	s := Schedule{{1, 10, w12}}
	err := CheckFeasible(g, s, 0, 100, math.Inf(1))
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 1 {
		t.Errorf("want condition (i) violation, got %v", err)
	}
}

func TestCheckFeasibleConditionII(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	// node 2 never informed
	s := Schedule{{0, 5, w01}}
	err := CheckFeasible(g, s, 0, 100, math.Inf(1))
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 2 {
		t.Errorf("want condition (ii) violation, got %v", err)
	}
}

func TestCheckFeasibleConditionIII(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	w12 := g.MinCost(1, 2, 10)
	s := Schedule{{0, 5, w01}, {1, 50, w12}}
	err := CheckFeasible(g, s, 0, 20, math.Inf(1)) // latency 51 > 20
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 3 {
		t.Errorf("want condition (iii) violation, got %v", err)
	}
}

func TestCheckFeasibleConditionIV(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	w12 := g.MinCost(1, 2, 10)
	s := Schedule{{0, 5, w01}, {1, 10, w12}}
	err := CheckFeasible(g, s, 0, 100, s.TotalCost()/2)
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 4 {
		t.Errorf("want condition (iv) violation, got %v", err)
	}
}

func TestCheckFeasibleFading(t *testing.T) {
	g := chainGraph(tveg.RayleighFading)
	eps := g.Params.Eps
	w01 := g.EDAt(0, 1, 5).MinCost(eps)
	w12 := g.EDAt(1, 2, 10).MinCost(eps)
	s := Schedule{{0, 5, w01}, {1, 10, w12}}
	if err := CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
		t.Errorf("per-hop ε schedule should be feasible: %v", err)
	}
	// halving the second power breaks condition (ii) for node 2
	weak := Schedule{{0, 5, w01}, {1, 10, w12 / 100}}
	err := CheckFeasible(g, weak, 0, 100, math.Inf(1))
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 2 {
		t.Errorf("want condition (ii) violation, got %v", err)
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{2, "detail"}
	if got := v.Error(); got != "schedule: condition (ii) violated: detail" {
		t.Errorf("Error() = %q", got)
	}
}

func TestInforms(t *testing.T) {
	cases := []struct {
		name        string
		tk, tau, tj float64
		k, j        int
		want        bool
	}{
		{"arrival exactly at departure", 5, 1, 6, 0, 1, true},
		{"arrival within tolerance", 5, 1, 6 - 0.5e-9, 0, 1, true},
		{"packet still in flight", 5, 1, 5.5, 0, 1, false},
		{"future transmission", 6, 1, 5, 0, 1, false},
		{"same instant τ=0 in order", 5, 0, 5, 0, 1, true},
		{"same instant τ=0 out of order", 5, 0, 5, 1, 0, false},
		{"same instant τ>0 never", 5, 1, 5, 0, 1, false},
		{"τ=0 strictly earlier", 4, 0, 5, 3, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Informs(tc.tk, tc.tau, tc.tj, tc.k, tc.j); got != tc.want {
				t.Errorf("Informs(%g, τ=%g, %g, k=%d, j=%d) = %v, want %v",
					tc.tk, tc.tau, tc.tj, tc.k, tc.j, got, tc.want)
			}
		})
	}
}

// TestCheckFeasiblePrematureTauChain pins the arrival-time fix of
// condition (i): chainGraph has τ = 1, so a packet departing v0 at t = 5
// arrives at v1 at t = 6, and v1 relaying at t = 5.5 — inside the
// flight window [5, 6) — can never happen in any execution. The old
// departure-time rule (t_k <= t) accepted exactly this chain.
func TestCheckFeasiblePrematureTauChain(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	premature := Schedule{{0, 5, w01}, {1, 5.5, g.MinCost(1, 2, 5.5)}}
	err := CheckFeasible(g, premature, 0, 100, math.Inf(1))
	var v *Violation
	if !errors.As(err, &v) || v.Condition != 1 {
		t.Fatalf("want condition (i) violation for a relay inside the flight window, got %v", err)
	}
	// Demonstrate the pre-fix acceptance: the departure-time probability
	// (UninformedProb, still the right rule for condition (ii)) calls v1
	// informed at 5.5, which is what condition (i) used to check.
	if p := UninformedProb(g, premature, 0, 1, 5.5); p > g.Params.Eps {
		t.Fatalf("departure-rule p = %g — the fixture no longer demonstrates the old acceptance", p)
	}
	// Moving the hop to the arrival instant makes the chain legal.
	legal := Schedule{{0, 5, w01}, {1, 6, g.MinCost(1, 2, 6)}}
	if err := CheckFeasible(g, legal, 0, 100, math.Inf(1)); err != nil {
		t.Fatalf("non-stop chain departing exactly at t+τ rejected: %v", err)
	}
}

func TestRelayUninformedProb(t *testing.T) {
	g := chainGraph(tveg.Static)
	w01 := g.MinCost(0, 1, 5)
	s := Schedule{{0, 5, w01}, {1, 6, g.MinCost(1, 2, 6)}, {1, 5.5, 0}}
	if p := RelayUninformedProb(g, s, 0, 0); p != 0 {
		t.Errorf("source relay: p = %g, want 0", p)
	}
	if p := RelayUninformedProb(g, s, 0, 1); p != 0 {
		t.Errorf("relay informed by arrival: p = %g, want 0", p)
	}
	if p := RelayUninformedProb(g, s, 0, 2); p != 1 {
		t.Errorf("relay inside flight window: p = %g, want 1", p)
	}
}

// TestCausalSortEqualTimeGroup: with τ = 0 a whole relay chain can sit
// on one timestamp; CausalSort must order the group so informed relays
// fire first, whatever order the producer emitted.
func TestCausalSortEqualTimeGroup(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 10)
	w01 := g.MinCost(0, 1, 10)
	w12 := g.MinCost(1, 2, 10)
	scrambled := Schedule{{1, 10, w12}, {0, 10, w01}}
	sorted := CausalSort(g, scrambled, 0, 0)
	if sorted[0].Relay != 0 || sorted[1].Relay != 1 {
		t.Fatalf("CausalSort = %v, want v0's transmission first", sorted)
	}
	if err := CheckFeasible(g, sorted, 0, 100, math.Inf(1)); err != nil {
		t.Fatalf("causally sorted τ=0 cascade rejected: %v", err)
	}
}
