package des

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/interference"
	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/tveg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

func chain() *tveg.Graph {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 8)
	return g
}

func sufficient(g *tveg.Graph, d float64) float64 {
	return g.Params.NoiseGamma() * d * d
}

func TestExecuteChainTimestamps(t *testing.T) {
	g := chain()
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: sufficient(g, 5)},
		{Relay: 1, T: 20, W: sufficient(g, 8)},
	}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3 (informedAt=%v)", res.Delivered, res.InformedAt)
	}
	// receptions land at transmission start + airtime
	if res.InformedAt[1] != 11 || res.InformedAt[2] != 21 {
		t.Errorf("InformedAt = %v, want [0 11 21]", res.InformedAt)
	}
	want := sufficient(g, 5) + sufficient(g, 8)
	if math.Abs(res.ConsumedEnergy-want) > 1e-24 {
		t.Errorf("energy = %g, want %g", res.ConsumedEnergy, want)
	}
}

func TestExecuteSkipsUninformedRelay(t *testing.T) {
	g := chain()
	s := schedule.Schedule{{Relay: 1, T: 20, W: sufficient(g, 8)}}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 1 || res.ConsumedEnergy != 0 {
		t.Errorf("res = %+v, want source-only with zero energy", res)
	}
}

// TestExecuteEndBeforeStartAtEqualTimes: an airtime end runs before a
// transmission start at the same instant, so a relay forwards the
// packet at the very instant it decodes it — also at airtime 0, where
// the reception completes at its transmission's instant.
func TestExecuteEndBeforeStartAtEqualTimes(t *testing.T) {
	g := chain()
	for _, airtime := range []float64{0, 1} {
		s := schedule.Schedule{
			{Relay: 0, T: 10, W: sufficient(g, 5)},
			{Relay: 1, T: 10 + airtime, W: sufficient(g, 8)},
		}
		res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: airtime}, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if want := 10 + 2*airtime; res.InformedAt[2] != want {
			t.Errorf("airtime %g: v2 informed at %g, want %g (InformedAt=%v)", airtime, res.InformedAt[2], want, res.InformedAt)
		}
	}
}

func TestExecuteAirtimeBlocksSameSlotForwarding(t *testing.T) {
	g := chain()
	// both transmissions at t=10: with 1 s airtime, node 1 receives at
	// 11, so its own transmission at 10 must be skipped
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: sufficient(g, 5)},
		{Relay: 1, T: 10, W: sufficient(g, 8)},
	}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Errorf("delivered %d, want 2 (relay can't forward mid-airtime)", res.Delivered)
	}
}

func TestExecuteCollision(t *testing.T) {
	// hidden terminal: 1 and 3 transmit simultaneously, 2 hears both
	g := tveg.New(4, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(0, 3, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 5)
	g.AddContact(3, 2, iv(0, 100), 5)
	w := sufficient(g, 5)
	s := schedule.Schedule{
		{Relay: 0, T: 1, W: w}, // informs 1 and 3
		{Relay: 1, T: 10, W: w},
		{Relay: 3, T: 10, W: w},
	}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1, Interference: true}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.InformedAt[2], 1) {
		t.Errorf("node 2 informed at %g despite collision, want +Inf", res.InformedAt[2])
	}
	if res.Collisions == 0 {
		t.Error("collision not counted")
	}
	// without interference modelling node 2 decodes
	res, err = Execute(g, s, 0, 0, ExecOptions{Airtime: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.InformedAt[2], 1) {
		t.Error("node 2 should decode without the interference model")
	}
}

func TestExecutePartialOverlapCorrupts(t *testing.T) {
	// second transmitter starts mid-airtime of the first: the ongoing
	// reception at the shared receiver is corrupted
	g := tveg.New(4, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(0, 3, iv(0, 100), 5)
	g.AddContact(1, 2, iv(0, 100), 5)
	g.AddContact(3, 2, iv(0, 100), 5)
	w := sufficient(g, 5)
	s := schedule.Schedule{
		{Relay: 0, T: 1, W: w},
		{Relay: 1, T: 10, W: w},
		{Relay: 3, T: 10.5, W: w}, // overlaps [10,11)
	}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1, Interference: true}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.InformedAt[2], 1) {
		t.Errorf("node 2 informed at %g despite partial-overlap collision, want +Inf", res.InformedAt[2])
	}
}

func TestExecuteInterferenceNeedsAirtime(t *testing.T) {
	g := chain()
	if _, err := Execute(g, nil, 0, 0, ExecOptions{Interference: true}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("interference with zero airtime should error")
	}
	// A negative or NaN airtime is an error with or without interference.
	s := schedule.Schedule{
		{Relay: 0, T: 10, W: sufficient(g, 5)},
		{Relay: 1, T: 20, W: sufficient(g, 8)},
	}
	for _, airtime := range []float64{-1, math.NaN()} {
		for _, interference := range []bool{false, true} {
			opts := ExecOptions{Airtime: airtime, Interference: interference}
			if res, err := Execute(g, s, 0, 0, opts, rand.New(rand.NewSource(1))); err == nil {
				t.Errorf("%+v: no error, InformedAt=%v", opts, res.InformedAt)
			}
		}
	}
}

func TestExecuteAgreesWithSimOnFading(t *testing.T) {
	// statistical cross-check against the closed-form executor on a
	// single-hop fading link
	g := tveg.New(2, iv(0, 100), 0, tveg.DefaultParams(), tveg.RayleighFading)
	g.AddContact(0, 1, iv(0, 100), 5)
	w := g.EDAt(0, 1, 10).MinCost(0.4)
	s := schedule.Schedule{{Relay: 0, T: 10, W: w}}
	hits := 0
	const trials = 20000
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < trials; i++ {
		res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 0.001}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered == 2 {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-0.6) > 0.02 {
		t.Errorf("success rate %g, want ≈ 0.6", got)
	}
}

func TestExecuteEEDCBScheduleEndToEnd(t *testing.T) {
	g := chain()
	s, err := (core.EEDCB{}).Schedule(g, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	// τ=0 plans put whole relay chains on one instant; under a real
	// airtime the relay cannot decode and forward simultaneously, so the
	// raw schedule loses the tail of the chain...
	raw, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 0.01}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if raw.Delivered != 2 {
		t.Fatalf("raw schedule delivered %d, want 2 (chain tail lost to airtime)", raw.Delivered)
	}
	// ...and the interference serializer is exactly the repair step.
	fixed, err := interference.Serialize(g, s, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(g, fixed, 0, 0, ExecOptions{Airtime: 0.01}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Errorf("serialized EEDCB schedule delivered %d/3 under DES execution", res.Delivered)
	}
}

// TestExecuteIndependentReceptionsNoInterference: with the collision
// model off, concurrently audible transmissions must not fight over a
// capture slot — each reception gets its own φ draw. v1 is informed
// early, then v0 (cost 0, φ = 1: guaranteed failure) and v1 (sufficient
// cost) transmit with overlapping airtimes; v2 must still decode v1's
// packet. The pre-fix engine let v0's doomed reception occupy v2's
// capture slot and dropped v1's.
func TestExecuteIndependentReceptionsNoInterference(t *testing.T) {
	g := tveg.New(3, iv(0, 100), 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, iv(0, 100), 5)
	g.AddContact(0, 2, iv(0, 100), 8)
	g.AddContact(1, 2, iv(0, 100), 8)
	s := schedule.Schedule{
		{Relay: 0, T: 2, W: sufficient(g, 5)},    // informs v1 at 3
		{Relay: 0, T: 10, W: 0},                  // fires; φ=1 at both receivers
		{Relay: 1, T: 10.5, W: sufficient(g, 8)}, // overlaps v0's airtime
	}
	res, err := Execute(g, s, 0, 0, ExecOptions{Airtime: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 3 {
		t.Fatalf("delivered %d, want 3 (receptions are independent without interference)", res.Delivered)
	}
	if res.InformedAt[2] != 11.5 {
		t.Errorf("v2 informed at %g, want 11.5 (end of v1's airtime)", res.InformedAt[2])
	}
	// The same overlap WITH the collision model is a genuine collision:
	// that difference is the feature the interference option models.
	res, err = Execute(g, s, 0, 0, ExecOptions{Airtime: 1, Interference: true}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Errorf("with interference: delivered %d, want 2 (v2 lost to the collision)", res.Delivered)
	}
	if res.Collisions == 0 {
		t.Error("with interference: expected at least one collision")
	}
}
