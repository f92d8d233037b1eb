package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

func TestSolveRejectsUnsupported(t *testing.T) {
	g := tveg.New(2, iv(0, 10), 0, tveg.DefaultParams(), tveg.RayleighFading)
	g.AddContact(0, 1, iv(0, 10), 5)
	if _, _, err := Solve(g, 0, 0, 10); err == nil {
		t.Error("fading model should be rejected")
	}
	g2 := tveg.New(2, iv(0, 10), 1, tveg.DefaultParams(), tveg.Static)
	g2.AddContact(0, 1, iv(0, 10), 5)
	if _, _, err := Solve(g2, 0, 0, 10); err == nil {
		t.Error("τ > 0 should be rejected")
	}
	g3 := tveg.New(MaxNodes+1, iv(0, 10), 0, tveg.DefaultParams(), tveg.Static)
	g3.AddContact(0, 1, iv(0, 10), 5)
	if _, _, err := Solve(g3, 0, 0, 10); err == nil {
		t.Error("oversized instance should be rejected")
	}
}

func TestSolveStarOptimal(t *testing.T) {
	g := tveg.New(4, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(0, 2, iv(10, 30), 10)
	g.AddContact(0, 3, iv(10, 30), 15)
	s, cost, err := Solve(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Params.NoiseGamma() * 225 // one broadcast at the farthest distance
	if math.Abs(cost-want)/want > 1e-9 {
		t.Errorf("optimal cost = %g, want %g", cost, want)
	}
	if err := schedule.CheckFeasible(g, s, 0, 100, math.Inf(1)); err != nil {
		t.Errorf("optimal schedule infeasible: %v", err)
	}
}

func TestSolveChainOptimal(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(1, 2, iv(20, 50), 8)
	s, cost, err := Solve(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Params.NoiseGamma() * (25 + 64)
	if math.Abs(cost-want)/want > 1e-9 {
		t.Errorf("optimal cost = %g, want %g", cost, want)
	}
	if len(s) != 2 {
		t.Errorf("schedule %v, want 2 transmissions", s)
	}
}

func TestSolveRelayBeatsDirect(t *testing.T) {
	// 0 can reach 2 directly at distance 20 (cost ∝ 400) or via 1 at
	// distances 8 + 8 (cost ∝ 128): the optimum must relay.
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 2, iv(10, 30), 20)
	g.AddContact(0, 1, iv(10, 30), 8)
	g.AddContact(1, 2, iv(40, 60), 8)
	_, cost, err := Solve(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Params.NoiseGamma() * 128
	if math.Abs(cost-want)/want > 1e-9 {
		t.Errorf("optimal cost = %g, want relayed %g", cost, want)
	}
	// with a tight deadline the relay path is gone: direct is optimal
	_, cost, err = Solve(g, 0, 0, 35)
	if err != nil {
		t.Fatal(err)
	}
	want = g.Params.NoiseGamma() * (400 + 64)
	// direct to 2 (400) plus informing 1 (64): 1 is covered for free by
	// the 20 m broadcast (8 < 20), so actually a single 400 suffices.
	want = g.Params.NoiseGamma() * 400
	if math.Abs(cost-want)/want > 1e-9 {
		t.Errorf("tight-deadline optimal = %g, want %g", cost, want)
	}
}

func TestSolveUnreachable(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	if _, _, err := Solve(g, 0, 0, 100); !errors.Is(err, ErrUnreachable) {
		t.Errorf("want ErrUnreachable, got %v", err)
	}
}

func TestOptimalCost(t *testing.T) {
	g := tveg.New(2, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(10, 30), 5)
	_, c, err := Solve(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Params.NoiseGamma() * 25
	if math.Abs(c-want)/want > 1e-9 {
		t.Errorf("optimal cost = %g, want %g", c, want)
	}
	if _, _, err := Solve(g, 1, 0, 5); err == nil {
		t.Error("expected error for infeasible window")
	}
}

func randomSmall(r *rand.Rand, n int) *tveg.Graph {
	g := tveg.New(n, iv(0, 300), 0, tveg.DefaultParams(), tveg.Static)
	for c := 0; c < 3*n; c++ {
		i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		s := r.Float64() * 250
		g.AddContact(i, j, iv(s, s+20+r.Float64()*40), 1+r.Float64()*15)
	}
	for j := 1; j < n; j++ {
		s := 250 + r.Float64()*20
		g.AddContact(0, tvg.NodeID(j), iv(s, s+25), 1+r.Float64()*15)
	}
	return g
}

func TestEEDCBWithinFactorOfOptimal(t *testing.T) {
	// The headline validation: on random small instances the level-2
	// recursive greedy stays within a small constant of the optimum, and
	// never beats it (sanity of the optimum itself).
	worst := 1.0
	for seed := int64(0); seed < 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomSmall(r, 6)
		_, opt, err := Solve(g, 0, 0, 300)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		s, err := (core.EEDCB{}).Schedule(g, 0, 0, 300)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ratio := s.TotalCost() / opt
		if ratio < 1-1e-9 {
			t.Errorf("seed %d: EEDCB %g beat the 'optimum' %g — exact solver bug",
				seed, s.TotalCost(), opt)
		}
		if ratio > worst {
			worst = ratio
		}
	}
	t.Logf("worst EEDCB/OPT ratio over 15 instances: %.3f", worst)
	if worst > 3 {
		t.Errorf("worst ratio %g exceeds 3 — approximation quality regressed", worst)
	}
}

func TestGreedyAndRandomAlsoAboveOptimal(t *testing.T) {
	for seed := int64(20); seed < 26; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomSmall(r, 6)
		_, opt, err := Solve(g, 0, 0, 300)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, alg := range []core.Scheduler{core.Greedy{}, core.Random{Seed: seed}} {
			s, err := alg.Schedule(g, 0, 0, 300)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, alg.Name(), err)
			}
			if s.TotalCost() < opt*(1-1e-9) {
				t.Errorf("seed %d: %s cost %g below optimum %g",
					seed, alg.Name(), s.TotalCost(), opt)
			}
		}
	}
}

func TestOptimalScheduleIsFeasible(t *testing.T) {
	for seed := int64(30); seed < 36; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomSmall(r, 5)
		s, _, err := Solve(g, 0, 0, 300)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := schedule.CheckFeasible(g, s, 0, 300, math.Inf(1)); err != nil {
			t.Errorf("seed %d: optimal schedule infeasible: %v", seed, err)
		}
	}
}

// checkTradeoff holds one seeded instance (randomSmall with 3–8 nodes)
// to the energy–delay tradeoff: from t0 = 0, relaxing the deadline T
// through 30, 45, 60, 80 and 100 s never raises the optimum. Every
// schedule feasible by a deadline is feasible by a later one, so the
// optimum over continuous time cannot rise; the search runs over the
// DTS, so a rise means the DTS of the later deadline lost a time an
// optimum needs (Theorem 5.2). Deadlines with no feasible schedule are
// skipped. The 1e-12 slack absorbs the order in which equal-time costs
// are summed.
func checkTradeoff(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	g := randomSmall(r, 3+r.Intn(6))
	prev, prevT := math.Inf(1), 0.0
	for _, T := range []float64{30, 45, 60, 80, 100} {
		_, c, err := Solve(g, 0, 0, T)
		if errors.Is(err, ErrUnreachable) {
			continue
		}
		if err != nil {
			t.Fatalf("seed %d T=%g: %v", seed, T, err)
		}
		if c > prev*(1+1e-12) {
			t.Fatalf("seed %d: the optimum by T=%g, %.5g, exceeds the optimum by T=%g, %.5g", seed, T, c, prevT, prev)
		}
		prev, prevT = c, T
	}
}

// TestOptimumNonIncreasingInDeadline checks the tradeoff on seeds
// 1–20,000 (1–1,000 under -short). Seed 237 is the first that failed
// while the DTS missed contact changes inside an adjacency interval.
func TestOptimumNonIncreasingInDeadline(t *testing.T) {
	seeds := int64(20000)
	if testing.Short() {
		seeds = 1000
	}
	for seed := int64(1); seed <= seeds; seed++ {
		checkTradeoff(t, seed)
	}
}

// FuzzOptimumNonIncreasingInDeadline searches further seeds for a
// tradeoff violation, starting from seed 237's instance.
func FuzzOptimumNonIncreasingInDeadline(f *testing.F) {
	f.Add(int64(237))
	f.Fuzz(checkTradeoff)
}
