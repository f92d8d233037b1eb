package sim

import (
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

func chain(m tveg.Model) *tveg.Graph {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), m)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(1, 2, iv(20, 50), 8)
	return g
}

func TestEvaluatePanicsOnZeroTrials(t *testing.T) {
	g := chain(tveg.Static)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Evaluate(g, nil, 0, 0, rand.New(rand.NewSource(1)))
}

func TestEvaluateStaticDeterministic(t *testing.T) {
	g := chain(tveg.Static)
	w01 := g.MinCost(0, 1, 10)
	w12 := g.MinCost(1, 2, 20)
	s := schedule.Schedule{{Relay: 0, T: 10, W: w01}, {Relay: 1, T: 20, W: w12}}
	r := Evaluate(g, s, 0, 5, rand.New(rand.NewSource(1)))
	if r.MeanDelivery != 1 {
		t.Errorf("delivery = %g, want 1", r.MeanDelivery)
	}
	if r.StdDelivery != 0 {
		t.Errorf("static delivery should have zero variance, got %g", r.StdDelivery)
	}
	want := (w01 + w12) / g.Params.GammaTh
	if math.Abs(r.MeanEnergy-want) > 1e-12 {
		t.Errorf("energy = %g, want %g", r.MeanEnergy, want)
	}
	if math.Abs(r.PlannedEnergy-want) > 1e-12 {
		t.Errorf("planned = %g, want %g", r.PlannedEnergy, want)
	}
}

func TestEvaluateRelayCannotForwardWithoutPacket(t *testing.T) {
	g := chain(tveg.Static)
	w12 := g.MinCost(1, 2, 20)
	// node 1 transmits but was never informed: nothing happens, no energy
	s := schedule.Schedule{{Relay: 1, T: 20, W: w12}}
	r := Evaluate(g, s, 0, 3, rand.New(rand.NewSource(1)))
	if r.MeanDelivery != 1.0/3 {
		t.Errorf("delivery = %g, want 1/3 (source only)", r.MeanDelivery)
	}
	if r.MeanEnergy != 0 {
		t.Errorf("energy = %g, want 0 (transmission never fires)", r.MeanEnergy)
	}
	if r.PlannedEnergy == 0 {
		t.Error("planned energy should still count the scheduled transmission")
	}
}

func TestEvaluateInsufficientPowerStaticFails(t *testing.T) {
	g := chain(tveg.Static)
	w01 := g.MinCost(0, 1, 10)
	s := schedule.Schedule{{Relay: 0, T: 10, W: w01 * 0.9}}
	r := Evaluate(g, s, 0, 2, rand.New(rand.NewSource(1)))
	if r.MeanDelivery != 1.0/3 {
		t.Errorf("delivery = %g, want 1/3", r.MeanDelivery)
	}
}

func TestEvaluateFadingMatchesAnalyticSingleHop(t *testing.T) {
	g := tveg.New(2, iv(0, 100), 0, tveg.DefaultParams(), tveg.RayleighFading)
	g.AddContact(0, 1, iv(0, 100), 5)
	ed := g.EDAt(0, 1, 10)
	w := ed.MinCost(0.3) // 70% success
	s := schedule.Schedule{{Relay: 0, T: 10, W: w}}
	r := Evaluate(g, s, 0, 40000, rand.New(rand.NewSource(7)))
	// delivery = (1 + P(success))/2
	want := (1 + 0.7) / 2
	if math.Abs(r.MeanDelivery-want) > 0.01 {
		t.Errorf("delivery = %g, want ≈%g", r.MeanDelivery, want)
	}
}

func TestEvaluateFadingCascade(t *testing.T) {
	// two-hop chain with 50%-success hops: delivery of node 2 should be
	// ≈ 0.25 (both hops must succeed; relay 1 fires only when informed).
	g := chain(tveg.RayleighFading)
	w01 := g.EDAt(0, 1, 10).MinCost(0.5)
	w12 := g.EDAt(1, 2, 20).MinCost(0.5)
	s := schedule.Schedule{{Relay: 0, T: 10, W: w01}, {Relay: 1, T: 20, W: w12}}
	r := Evaluate(g, s, 0, 60000, rand.New(rand.NewSource(9)))
	// node1 informed: 1/2; node2 informed: 1/4 → delivery = (1 + 1/2 + 1/4)/3
	want := (1 + 0.5 + 0.25) / 3
	if math.Abs(r.MeanDelivery-want) > 0.01 {
		t.Errorf("delivery = %g, want ≈%g", r.MeanDelivery, want)
	}
	// consumed energy: tx0 always fires; tx1 fires half the time
	wantEnergy := (w01 + 0.5*w12) / g.Params.GammaTh
	if math.Abs(r.MeanEnergy-wantEnergy)/wantEnergy > 0.02 {
		t.Errorf("energy = %g, want ≈%g", r.MeanEnergy, wantEnergy)
	}
}

func TestFRBeatsNonFRDeliveryUnderFading(t *testing.T) {
	// The headline Fig. 6 effect on a single trace.
	r := rand.New(rand.NewSource(4))
	g := tveg.New(6, iv(0, 1000), 0, tveg.DefaultParams(), tveg.RayleighFading)
	for c := 0; c < 30; c++ {
		i, j := tvg.NodeID(r.Intn(6)), tvg.NodeID(r.Intn(6))
		if i == j {
			continue
		}
		s := r.Float64() * 800
		g.AddContact(i, j, iv(s, s+50+r.Float64()*100), 1+r.Float64()*9)
	}
	nonFR, err1 := core.EEDCB{}.Schedule(g, 0, 0, 1000)
	fr, err2 := core.FREEDCB{}.Schedule(g, 0, 0, 1000)
	if err1 != nil || err2 != nil {
		t.Skipf("trace not fully connected: %v %v", err1, err2)
	}
	rng := rand.New(rand.NewSource(11))
	resNon := Evaluate(g, nonFR, 0, 3000, rng)
	resFR := Evaluate(g, fr, 0, 3000, rng)
	if resFR.MeanDelivery <= resNon.MeanDelivery {
		t.Errorf("FR delivery %g should beat non-FR %g",
			resFR.MeanDelivery, resNon.MeanDelivery)
	}
	if resFR.MeanDelivery < 0.95 {
		t.Errorf("FR delivery %g should be near 1", resFR.MeanDelivery)
	}
}

// tauChain builds 0—1—2 with always-alive contacts and the given τ.
func tauChain(m tveg.Model, tau float64) *tveg.Graph {
	g := tveg.New(3, iv(0, 100), tau, tveg.DefaultParams(), m)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 8)
	return g
}

// TestEvaluatePrematureRelayTauPositive pins the per-node reception-time
// fix: with τ = 5 the packet departing v0 at t = 10 reaches v1 at 15,
// so v1 relaying at t = 12 must be skipped — the old boolean informed
// set relayed it and over-counted delivery.
func TestEvaluatePrematureRelayTauPositive(t *testing.T) {
	g := tauChain(tveg.Static, 5)
	premature := schedule.Schedule{
		{Relay: 0, T: 10, W: g.MinCost(0, 1, 10)},
		{Relay: 1, T: 12, W: g.MinCost(1, 2, 12)},
	}
	res := Evaluate(g, premature, 0, 1, rand.New(rand.NewSource(1)))
	if want := 2.0 / 3; res.MeanDelivery != want {
		t.Errorf("premature relay: delivery %g, want %g", res.MeanDelivery, want)
	}
	if want := g.MinCost(0, 1, 10) / g.Params.GammaTh; res.MeanEnergy != want {
		t.Errorf("premature relay must not consume energy: %g, want %g", res.MeanEnergy, want)
	}
	legal := schedule.Schedule{
		{Relay: 0, T: 10, W: g.MinCost(0, 1, 10)},
		{Relay: 1, T: 15, W: g.MinCost(1, 2, 15)}, // departs exactly at arrival
	}
	if res := Evaluate(g, legal, 0, 1, rand.New(rand.NewSource(1))); res.MeanDelivery != 1 {
		t.Errorf("non-stop chain: delivery %g, want 1", res.MeanDelivery)
	}
}

// legacyTrialDelivered is sim.Evaluate's pre-fix inner loop: a boolean
// informed set consuming the rng in schedule × neighbor order.
func legacyTrialDelivered(g *tveg.Graph, ordered schedule.Schedule, src tvg.NodeID, rng *rand.Rand) (int, float64) {
	informed := make([]bool, g.N())
	informed[src] = true
	var energy float64
	for _, x := range ordered {
		if !informed[x.Relay] {
			continue
		}
		energy += x.W
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
	delivered := 0
	for _, ok := range informed {
		if ok {
			delivered++
		}
	}
	return delivered, energy
}

// TestEvaluateTauZeroMatchesLegacyStream: at τ = 0 the reception-time
// rewrite must be byte-identical to the old boolean executor — same
// delivery, same energy, and the same rng consumption pattern across
// many fading trials (a skipped or extra draw anywhere would decouple
// the streams and show up within a trial or two).
func TestEvaluateTauZeroMatchesLegacyStream(t *testing.T) {
	g := tauChain(tveg.RayleighFading, 0)
	eps := g.Params.Eps
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: 0.8 * g.EDAt(0, 1, 10).MinCost(eps)},
		{Relay: 1, T: 10, W: 0.7 * g.EDAt(1, 2, 10).MinCost(eps)}, // τ=0 same-instant cascade
		{Relay: 1, T: 30, W: 0.9 * g.EDAt(1, 2, 30).MinCost(eps)},
	}
	const trials = 64
	for seed := int64(0); seed < 5; seed++ {
		res := Evaluate(g, s, 0, trials, rand.New(rand.NewSource(seed)))
		legacyRng := rand.New(rand.NewSource(seed))
		var sumDelivery, sumEnergy float64
		for trial := 0; trial < trials; trial++ {
			delivered, energy := legacyTrialDelivered(g, s, 0, legacyRng)
			sumDelivery += float64(delivered) / float64(g.N())
			sumEnergy += energy / g.Params.GammaTh
		}
		if got, want := res.MeanDelivery, sumDelivery/trials; got != want {
			t.Fatalf("seed %d: delivery %v, legacy %v", seed, got, want)
		}
		if got, want := res.MeanEnergy, sumEnergy/trials; got != want {
			t.Fatalf("seed %d: energy %v, legacy %v", seed, got, want)
		}
	}
}
