package interference

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

// hiddenTerminal: transmitters 0 and 1 both cover receiver 2; 0 also
// covers 3 privately, 1 covers 4 privately.
func hiddenTerminal() *tveg.Graph {
	g := tveg.New(5, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 2, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 5)
	g.AddContact(0, 3, iv(0, 100), 5)
	g.AddContact(1, 4, iv(0, 100), 5)
	g.AddContact(0, 1, iv(0, 100), 5)
	return g
}

func sufficientW(g *tveg.Graph) float64 { return g.Params.NoiseGamma() * 25 }

func TestDetectFindsHiddenTerminal(t *testing.T) {
	g := hiddenTerminal()
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 1, T: 10, W: w},
	}
	conflicts := Detect(g, s, 1)
	if len(conflicts) != 1 {
		t.Fatalf("conflicts = %v, want 1", conflicts)
	}
	if conflicts[0].K != 0 || conflicts[0].L != 1 {
		t.Errorf("conflict pair = %v", conflicts[0])
	}
}

func TestDetectNoConflictWhenSeparated(t *testing.T) {
	g := hiddenTerminal()
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 1, T: 20, W: w},
	}
	if c := Detect(g, s, 1); len(c) != 0 {
		t.Errorf("separated transmissions conflict: %v", c)
	}
}

func TestDetectSameRelayNeverConflicts(t *testing.T) {
	g := hiddenTerminal()
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 0, T: 10, W: w / 2},
	}
	if c := Detect(g, s, 1); len(c) != 0 {
		t.Errorf("same-relay transmissions conflict: %v", c)
	}
}

func TestSerializeResolvesConflicts(t *testing.T) {
	g := hiddenTerminal()
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 1, T: 10, W: w},
	}
	out, err := Serialize(g, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c := Detect(g, out, 1); len(c) != 0 {
		t.Errorf("serialized schedule still conflicts: %v", c)
	}
	// the shifted transmission stays within its contact
	for _, x := range out {
		if x.T < 0 || x.T > 100 {
			t.Errorf("transmission moved outside span: %v", x)
		}
	}
}

// TestSerializeBadSlot: a slot that is not positive, NaN included, is
// rejected by name before any pass runs, even on a schedule with a
// conflict to resolve.
func TestSerializeBadSlot(t *testing.T) {
	g := hiddenTerminal()
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 1, T: 10, W: w},
	}
	for _, slot := range []float64{0, -1, math.NaN()} {
		_, err := Serialize(g, s, slot)
		if want := fmt.Sprintf("interference: slot %g is not positive", slot); err == nil || err.Error() != want {
			t.Errorf("Serialize(slot %g) error = %v, want %q", slot, err, want)
		}
	}
}

func TestSerializeFailsAtIntervalEdge(t *testing.T) {
	// contact so short the conflicting tx cannot be delayed inside it
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 2, iv(10, 10.5), 5)
	g.AddContact(1, 2, iv(10, 10.5), 5)
	w := sufficientW(g)
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: w},
		{Relay: 1, T: 10, W: w},
	}
	if _, err := Serialize(g, s, 1); err == nil {
		t.Error("expected failure: no room to serialize inside a 0.5 s contact")
	}
}

// The two gadgets below run at slot 0 as well: with τ = 0 the span is
// then zero, and equal-time transmissions must still share a cluster.

func TestEvaluateCollisionKillsSharedReceiver(t *testing.T) {
	// Hidden-terminal gadget: 0 informs 1 through an early private
	// contact, then 0 and 1 transmit simultaneously. Receivers 3 and 4
	// each hear exactly one transmitter and decode; the shared receiver
	// 2 hears both and collides.
	g2 := tveg.New(5, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g2.AddContact(0, 1, iv(0, 5), 5)   // early private link 0-1
	g2.AddContact(0, 2, iv(8, 100), 5) // later shared receiver window
	g2.AddContact(1, 2, iv(8, 100), 5)
	g2.AddContact(0, 3, iv(8, 100), 5)
	g2.AddContact(1, 4, iv(8, 100), 5)
	w2 := g2.Params.NoiseGamma() * 25
	s := schedule.Schedule{
		{Relay: 0, T: 2, W: w2},  // informs 1
		{Relay: 0, T: 10, W: w2}, // collides with next at receiver 2
		{Relay: 1, T: 10, W: w2},
	}
	// serializing repairs it
	fixed, err := Serialize(g2, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []float64{1, 0} {
		got := Evaluate(g2, s, 0, slot, 200, rand.New(rand.NewSource(1)))
		// informed: 0 (src), 1 (early), 3 (hears only 0), 4 (hears only 1);
		// 2 collides → 4/5
		if math.Abs(got-0.8) > 1e-9 {
			t.Errorf("slot %g: delivery = %g, want 0.8 (receiver 2 collided)", slot, got)
		}
		got = Evaluate(g2, fixed, 0, slot, 200, rand.New(rand.NewSource(1)))
		if got != 1 {
			t.Errorf("slot %g: serialized delivery = %g, want 1", slot, got)
		}
	}
}

func TestEvaluateNoIntraClusterForwarding(t *testing.T) {
	// chain 0→1→2 with both transmissions at the same instant: 1 cannot
	// decode and forward within one airtime, so 2 stays uninformed.
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 5)
	w := sufficientW(g)
	for _, slot := range []float64{1, 0} {
		s := schedule.Schedule{
			{Relay: 0, T: 10, W: w},
			{Relay: 1, T: 10, W: w},
		}
		got := Evaluate(g, s, 0, slot, 100, rand.New(rand.NewSource(1)))
		if math.Abs(got-2.0/3) > 1e-9 {
			t.Errorf("slot %g: delivery = %g, want 2/3 (no same-slot forwarding)", slot, got)
		}
		// separated by a slot, the chain completes
		s[1].T = 12
		got = Evaluate(g, s, 0, slot, 100, rand.New(rand.NewSource(1)))
		if got != 1 {
			t.Errorf("slot %g: delivery = %g, want 1", slot, got)
		}
	}
}

func TestEvaluatePanics(t *testing.T) {
	g := hiddenTerminal()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Evaluate(g, nil, 0, 1, 0, rand.New(rand.NewSource(1)))
}

// perTrialScan is the collision evaluator as a plain per-trial scan:
// every trial asks RhoTau for every (fired transmission, uninformed
// node) pair and EDAt for every node that hears exactly one. It is the
// oracle of Evaluate's per-cluster receiver tables, with the same
// clustering rule.
func perTrialScan(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, slot float64, trials int, rng *rand.Rand) float64 {
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()
	span := g.Tau()
	if span < slot {
		span = slot
	}
	var clusters [][]int
	for k := 0; k < len(ordered); {
		end := ordered[k].T + span
		cl := []int{k}
		l := k + 1
		for l < len(ordered) && (ordered[l].T < end || ordered[l].T == ordered[k].T) {
			if t := ordered[l].T + span; t > end {
				end = t
			}
			cl = append(cl, l)
			l++
		}
		clusters = append(clusters, cl)
		k = l
	}
	informed := make([]bool, g.N())
	var sum float64
	for trial := 0; trial < trials; trial++ {
		for i := range informed {
			informed[i] = false
		}
		informed[src] = true
		for _, cl := range clusters {
			var fired []int
			for _, k := range cl {
				if informed[ordered[k].Relay] {
					fired = append(fired, k)
				}
			}
			for j := 0; j < g.N(); j++ {
				nj := tvg.NodeID(j)
				if informed[nj] {
					continue
				}
				heard, count := -1, 0
				for _, k := range fired {
					x := ordered[k]
					if x.Relay != nj && g.RhoTau(x.Relay, nj, x.T) {
						count++
						heard = k
					}
				}
				if count != 1 {
					continue
				}
				x := ordered[heard]
				failure := g.EDAt(x.Relay, nj, x.T).FailureProb(x.W)
				if failure <= 0 || rng.Float64() >= failure {
					informed[nj] = true
				}
			}
		}
		delivered := 0
		for _, ok := range informed {
			if ok {
				delivered++
			}
		}
		sum += float64(delivered) / float64(g.N())
	}
	return sum / float64(trials)
}

// sameAsPerTrialScan runs Evaluate and the oracle on one audit case with
// equally seeded streams and reports a mismatch of the mean delivery's
// bits.
func sameAsPerTrialScan(t *testing.T, c audit.Case, slot float64, trials int) {
	t.Helper()
	got := Evaluate(c.Graph, c.Schedule, c.Src, slot, trials, rand.New(rand.NewSource(c.Seed)))
	want := perTrialScan(c.Graph, c.Schedule, c.Src, slot, trials, rand.New(rand.NewSource(c.Seed)))
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%v slot %g trials %d: Evaluate %v, per-trial scan %v", c, slot, trials, got, want)
	}
}

// TestEvaluateMatchesPerTrialScan pins the receiver tables bit for bit
// to the per-trial scan on the differential audit's generated cases:
// both channel models, τ ∈ {0, 0.5, 7}, equal-time groups, and slots
// from zero (equal-time clusters only) to ten seconds (long chains of
// overlapping airtimes).
func TestEvaluateMatchesPerTrialScan(t *testing.T) {
	taus, models := map[float64]bool{}, map[tveg.Model]bool{}
	for seed := int64(1); seed <= 300; seed++ {
		c := audit.GenerateCase(seed)
		taus[c.Graph.Tau()] = true
		models[c.Graph.Model] = true
		for _, slot := range []float64{0, 0.008, 1, 10} {
			for _, trials := range []int{1, 37} {
				sameAsPerTrialScan(t, c, slot, trials)
			}
		}
	}
	if len(taus) != 3 || !models[tveg.Static] || !models[tveg.RayleighFading] {
		t.Fatalf("cases cover τ %v and models %v, want τ ∈ {0, 0.5, 7}, Static and Rayleigh", taus, models)
	}
}

// FuzzEvaluateMatchesPerTrialScan drives the same comparison from fuzzed
// seeds, slots (zero, negative, NaN and infinite included) and trial
// counts. The audit generator owns the graph and the schedule, so the
// three values reproduce any failure.
func FuzzEvaluateMatchesPerTrialScan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, 0.008, uint8(37))
		f.Add(seed, 0.0, uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed int64, slot float64, trials uint8) {
		sameAsPerTrialScan(t, audit.GenerateCase(seed), slot, 1+int(trials)%64)
	})
}

// TestEvaluateTrialsAllocateNothing: the receiver tables are built once
// per call, so a call allocates as much at 200 trials as at one.
func TestEvaluateTrialsAllocateNothing(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		c := audit.GenerateCase(seed)
		rng := rand.New(rand.NewSource(seed))
		allocs := func(trials int) float64 {
			return testing.AllocsPerRun(5, func() {
				Evaluate(c.Graph, c.Schedule, c.Src, 0.008, trials, rng)
			})
		}
		if one, many := allocs(1), allocs(200); one != many {
			t.Fatalf("%v: %g allocations at 1 trial, %g at 200", c, one, many)
		}
	}
}
