package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/schedule"
	"repro/internal/tveg"
)

func fadingPair() (*tveg.Graph, schedule.Schedule) {
	g := tveg.New(2, iv(0, 100), 0, tveg.DefaultParams(), tveg.RayleighFading)
	g.AddContact(0, 1, iv(0, 100), 5)
	w := g.EDAt(0, 1, 10).MinCost(0.4)
	return g, schedule.Schedule{{Relay: 0, T: 10, W: w}}
}

func TestEvaluateParallelMatchesSequentialStatistically(t *testing.T) {
	g, s := fadingPair()
	seq := Evaluate(g, s, 0, 40000, rand.New(rand.NewSource(5)))
	par := EvaluateParallel(g, s, 0, 40000, 5, 4)
	if math.Abs(seq.MeanDelivery-par.MeanDelivery) > 0.01 {
		t.Errorf("parallel delivery %g vs sequential %g", par.MeanDelivery, seq.MeanDelivery)
	}
	if math.Abs(seq.MeanEnergy-par.MeanEnergy)/seq.MeanEnergy > 0.02 {
		t.Errorf("parallel energy %g vs sequential %g", par.MeanEnergy, seq.MeanEnergy)
	}
	if par.Trials != 40000 {
		t.Errorf("Trials = %d, want 40000", par.Trials)
	}
}

func TestEvaluateParallelDeterministic(t *testing.T) {
	g, s := fadingPair()
	a := EvaluateParallel(g, s, 0, 5000, 9, 4)
	b := EvaluateParallel(g, s, 0, 5000, 9, 4)
	if a != b {
		t.Errorf("same seed/workers differ: %+v vs %+v", a, b)
	}
	// Exact bits per worker count: the (seed, workers) streams and the
	// pooled merge are part of the output contract. 5001 trials split
	// evenly over 3 workers and unevenly over 4 and 7.
	const planned = 0x1.f3350605f0631p-63
	for _, want := range []Result{
		{MeanEnergy: 0x1.f3350605f0328p-63, MeanDelivery: 0x1.9af38f9658261p-01, StdDelivery: 0x1.f4925c5b4c89dp-03, PlannedEnergy: planned, Trials: 5001, Workers: 1},
		{MeanEnergy: 0x1.f3350605f0761p-63, MeanDelivery: 0x1.975e3d87b43d4p-01, StdDelivery: 0x1.f77219589912fp-03, PlannedEnergy: planned, Trials: 5001, Workers: 3},
		{MeanEnergy: 0x1.f3350605f072bp-63, MeanDelivery: 0x1.987e8a84fdb25p-01, StdDelivery: 0x1.f696995401addp-03, PlannedEnergy: planned, Trials: 5001, Workers: 4},
		{MeanEnergy: 0x1.f3350605f068cp-63, MeanDelivery: 0x1.9792a89e7bc6ep-01, StdDelivery: 0x1.f74afc5082968p-03, PlannedEnergy: planned, Trials: 5001, Workers: 7},
	} {
		if got := EvaluateParallel(g, s, 0, 5001, 9, want.Workers); got != want {
			t.Errorf("workers=%d:\n got %+v\nwant %+v", want.Workers, got, want)
		}
	}
}

func TestEvaluateParallelSingleWorkerEqualsSequential(t *testing.T) {
	g, s := fadingPair()
	a := EvaluateParallel(g, s, 0, 1000, 3, 1)
	b := Evaluate(g, s, 0, 1000, rand.New(rand.NewSource(3)))
	if a != b {
		t.Errorf("workers=1 should match sequential exactly: %+v vs %+v", a, b)
	}
}

func TestEvaluateParallelMoreWorkersThanTrials(t *testing.T) {
	g, s := fadingPair()
	r := EvaluateParallel(g, s, 0, 3, 1, 16)
	if r.Trials != 3 {
		t.Errorf("Trials = %d, want 3", r.Trials)
	}
}

func TestEvaluateParallelDefaultWorkers(t *testing.T) {
	g, s := fadingPair()
	r := EvaluateParallel(g, s, 0, 200, 1, 0)
	if r.Trials != 200 {
		t.Errorf("Trials = %d, want 200", r.Trials)
	}
	if r.MeanDelivery <= 0.5 || r.MeanDelivery > 1 {
		t.Errorf("delivery = %g out of plausible range", r.MeanDelivery)
	}
}

func TestMergeResultsPooledStd(t *testing.T) {
	// two degenerate batches with known pooled statistics
	a := Result{Trials: 2, MeanDelivery: 0.5, StdDelivery: 0, MeanEnergy: 1}
	b := Result{Trials: 2, MeanDelivery: 1.0, StdDelivery: 0, MeanEnergy: 3}
	m := mergeResults([]Result{a, b})
	if m.Trials != 4 || math.Abs(m.MeanDelivery-0.75) > 1e-12 {
		t.Fatalf("merge = %+v", m)
	}
	// samples are {0.5, 0.5, 1, 1}: sample std = sqrt(1/12)
	want := math.Sqrt(1.0 / 12.0)
	if math.Abs(m.StdDelivery-want) > 1e-9 {
		t.Errorf("pooled std = %g, want %g", m.StdDelivery, want)
	}
	if math.Abs(m.MeanEnergy-2) > 1e-12 {
		t.Errorf("pooled energy = %g, want 2", m.MeanEnergy)
	}
}

func TestMergeResultsEmpty(t *testing.T) {
	if m := mergeResults(nil); m.Trials != 0 {
		t.Errorf("merge(nil) = %+v", m)
	}
}
