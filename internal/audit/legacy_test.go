package audit

import (
	"math/rand"
	"testing"

	"repro/internal/des"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// legacyDelivered reimplements sim.Evaluate's pre-fix inner loop: a
// boolean informed set with no arrival times, under which a node
// informed at time t happily relays a transmission scheduled inside
// [t, t+τ) — the premature-relay bug this audit package exists to keep
// dead. Kept verbatim so the pinned fixture below keeps demonstrating
// that the differential oracle catches the old semantics.
func legacyDelivered(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, rng *rand.Rand) int {
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()
	informed := make([]bool, g.N())
	informed[src] = true
	for _, x := range ordered {
		if !informed[x.Relay] {
			continue
		}
		for _, j := range g.EverNeighbors(x.Relay) {
			if informed[j] || !g.RhoTau(x.Relay, j, x.T) {
				continue
			}
			failure := g.EDAt(x.Relay, j, x.T).FailureProb(x.W)
			if failure <= 0 || rng.Float64() >= failure {
				informed[j] = true
			}
		}
	}
	n := 0
	for _, ok := range informed {
		if ok {
			n++
		}
	}
	return n
}

// TestLegacyEvaluateCaughtByOracle is the pinned pre-fix fixture of the
// audit acceptance criteria: a τ = 5 chain whose second hop departs at
// t = 12, inside the first packet's [10, 15) flight window. The legacy
// boolean executor relays it and delivers all 3 nodes; every current
// executor (and the feasibility checks) must refuse.
func TestLegacyEvaluateCaughtByOracle(t *testing.T) {
	const tau = 5.0
	g := lineGraph(3, tau, tveg.Static)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: g.MinCost(0, 1, 10)},
		{Relay: 1, T: 12, W: g.MinCost(1, 2, 12)},
	}

	legacy := legacyDelivered(g, s, 0, ForceSuccess())
	if legacy != 3 {
		t.Fatalf("legacy executor delivered %d, want 3 — the fixture no longer reproduces the old bug", legacy)
	}

	ref := Execute(g, s, 0, Options{})
	if ref.Delivered != 2 {
		t.Fatalf("reference delivered %d, want 2", ref.Delivered)
	}
	if legacy == ref.Delivered {
		t.Fatal("fixture no longer distinguishes legacy from reference semantics")
	}

	// Every live executor must side with the reference, not the legacy.
	if ev := sim.Evaluate(g, s, 0, 1, ForceSuccess()); int(ev.MeanDelivery*3+0.5) != 2 {
		t.Fatalf("sim.Evaluate delivered %g nodes, want 2", ev.MeanDelivery*3)
	}
	dres, err := des.Execute(g, s, 0, 0, des.ExecOptions{}, ForceSuccess())
	if err != nil {
		t.Fatal(err)
	}
	if dres.Delivered != 2 {
		t.Fatalf("des.Execute delivered %d, want 2", dres.Delivered)
	}
	err = schedule.CheckFeasible(g, s, 0, 30, 1e300)
	v, ok := err.(*schedule.Violation)
	if !ok || v.Condition != 1 {
		t.Fatalf("CheckFeasible = %v, want condition (i) violation", err)
	}
	if cond, _ := Feasibility(g, s, 0, 30, 1e300); cond != 1 {
		t.Fatalf("Feasibility = %d, want 1", cond)
	}

	// And the full differential comparison must be clean for the fixed
	// executors: the only divergent semantics left is the legacy loop.
	if diffs := CompareSchedule(g, s, 0, 0, 30, 1e300); len(diffs) != 0 {
		t.Fatalf("fixed executors disagree on the fixture: %v", diffs)
	}
}
