package tveg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/channel"
	"repro/internal/interval"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

func testParams() Params {
	p := DefaultParams()
	return p
}

func smallGraph(m Model) *Graph {
	g := New(4, iv(0, 100), 1, testParams(), m)
	g.AddContact(0, 1, iv(10, 30), 5)
	g.AddContact(0, 1, iv(60, 70), 20)
	g.AddContact(1, 2, iv(25, 45), 10)
	g.AddContact(2, 3, iv(40, 55), 3)
	return g
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.N0 != 4.32e-21 {
		t.Errorf("N0 = %g", p.N0)
	}
	// 25.9 dB → 10^2.59 ≈ 389.05
	if math.Abs(p.GammaTh-389.04514) > 0.01 {
		t.Errorf("GammaTh = %g, want ≈389.05", p.GammaTh)
	}
	if p.Alpha != 2 || p.Eps != 0.01 {
		t.Errorf("Alpha=%g Eps=%g", p.Alpha, p.Eps)
	}
}

func TestModelString(t *testing.T) {
	for m, want := range map[Model]string{
		Static: "static", RayleighFading: "rayleigh",
		RicianFading: "rician", NakagamiFading: "nakagami",
	} {
		if got := m.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(m), got, want)
		}
	}
	if Static.Fading() {
		t.Error("Static must not be fading")
	}
	if !RayleighFading.Fading() {
		t.Error("Rayleigh must be fading")
	}
}

// TestParseModel pins ParseModel as String's inverse. It matches case
// exactly; tmedb lower-cases its -model flag first, so "RICIAN" works
// there.
func TestParseModel(t *testing.T) {
	for _, m := range []Model{Static, RayleighFading, RicianFading, NakagamiFading} {
		if got, err := ParseModel(m.String()); err != nil || got != m {
			t.Errorf("ParseModel(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for s, want := range map[string]Model{"RICIAN": RicianFading, "Nakagami": NakagamiFading} {
		if got, err := ParseModel(strings.ToLower(s)); err != nil || got != want {
			t.Errorf("ParseModel(lower(%q)) = %v, %v; want %v", s, got, err, want)
		}
		if _, err := ParseModel(s); err == nil {
			t.Errorf("ParseModel(%q) ignored case", s)
		}
	}
	for _, s := range []string{"awgn", "", "model(4)"} {
		if _, err := ParseModel(s); err == nil || err.Error() != fmt.Sprintf("unknown model %q", s) {
			t.Errorf("ParseModel(%q) error = %v", s, err)
		}
	}
}

func TestAddContactRejectsBadDistance(t *testing.T) {
	for _, d := range []float64{0, -3, math.NaN()} {
		func() {
			g := New(2, iv(0, 10), 0, testParams(), Static)
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for distance %g", d)
				}
			}()
			g.AddContact(0, 1, iv(0, 5), d)
		}()
	}
}

func TestSegmentAt(t *testing.T) {
	g := smallGraph(Static)
	s, ok := g.SegmentAt(0, 1, 15)
	if !ok || s.Dist != 5 {
		t.Errorf("SegmentAt(0,1,15) = %v,%v; want dist 5", s, ok)
	}
	s, ok = g.SegmentAt(0, 1, 65)
	if !ok || s.Dist != 20 {
		t.Errorf("SegmentAt(0,1,65) = %v,%v; want dist 20", s, ok)
	}
	if _, ok := g.SegmentAt(0, 1, 50); ok {
		t.Error("SegmentAt in a gap should fail")
	}
	if _, ok := g.SegmentAt(0, 3, 15); ok {
		t.Error("SegmentAt on absent edge should fail")
	}
}

func TestBeta(t *testing.T) {
	g := smallGraph(RayleighFading)
	want := g.Params.NoiseGamma() * 25 // d=5, α=2
	if got := g.Beta(0, 1, 15); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("Beta = %g, want %g", got, want)
	}
	if !math.IsInf(g.Beta(0, 3, 15), 1) {
		t.Error("Beta on absent edge should be +Inf")
	}
}

func TestEDAtStatic(t *testing.T) {
	g := smallGraph(Static)
	ed := g.EDAt(0, 1, 15)
	step, ok := ed.(channel.Step)
	if !ok {
		t.Fatalf("EDAt = %T, want Step", ed)
	}
	want := g.Params.NoiseGamma() * 25
	if math.Abs(step.Threshold-want)/want > 1e-12 {
		t.Errorf("Threshold = %g, want %g", step.Threshold, want)
	}
}

func TestEDAtAbsent(t *testing.T) {
	g := smallGraph(Static)
	if _, ok := g.EDAt(0, 1, 50).(channel.Absent); !ok {
		t.Error("EDAt in gap should be Absent")
	}
	// ρ_τ fails near the contact end even though ρ holds
	if _, ok := g.EDAt(0, 1, 29.5).(channel.Absent); !ok {
		t.Error("EDAt with window overrunning contact should be Absent")
	}
}

func TestEDAtModels(t *testing.T) {
	for m, typ := range map[Model]string{
		RayleighFading: "channel.Rayleigh",
		RicianFading:   "channel.Rician",
		NakagamiFading: "channel.Nakagami",
	} {
		g := smallGraph(m)
		ed := g.EDAt(0, 1, 15)
		got := typeName(ed)
		if got != typ {
			t.Errorf("model %v: EDAt type %s, want %s", m, got, typ)
		}
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case channel.Rayleigh:
		return "channel.Rayleigh"
	case channel.Rician:
		return "channel.Rician"
	case channel.Nakagami:
		return "channel.Nakagami"
	case channel.Step:
		return "channel.Step"
	case channel.Absent:
		return "channel.Absent"
	}
	return "?"
}

func TestMinCostStatic(t *testing.T) {
	g := smallGraph(Static)
	want := g.Params.NoiseGamma() * 25
	if got := g.MinCost(0, 1, 15); math.Abs(got-want)/want > 1e-12 {
		t.Errorf("MinCost = %g, want %g", got, want)
	}
	if !math.IsInf(g.MinCost(0, 3, 15), 1) {
		t.Error("MinCost on absent edge should be +Inf")
	}
}

func TestMinCostFadingIsW0(t *testing.T) {
	g := smallGraph(RayleighFading)
	beta := g.Beta(0, 1, 15)
	want := beta / math.Log(1/(1-g.Params.Eps)) // §VI-B formula
	if got := g.MinCost(0, 1, 15); math.Abs(got-want)/want > 1e-9 {
		t.Errorf("MinCost = %g, want w0 = %g", got, want)
	}
}

func TestMinCostRespectsWMax(t *testing.T) {
	p := testParams()
	p.WMax = 1e-18
	g := New(2, iv(0, 10), 0, p, Static)
	g.AddContact(0, 1, iv(0, 10), 1000) // needs huge cost
	if !math.IsInf(g.MinCost(0, 1, 5), 1) {
		t.Error("cost above WMax should be unreachable")
	}
}

func TestDCSOrderingAndCoverage(t *testing.T) {
	g := New(4, iv(0, 10), 0, testParams(), Static)
	g.AddContact(0, 1, iv(0, 10), 10)
	g.AddContact(0, 2, iv(0, 10), 5)
	g.AddContact(0, 3, iv(0, 10), 20)
	dcs := g.DCS(0, 5)
	if len(dcs) != 3 {
		t.Fatalf("DCS len = %d, want 3", len(dcs))
	}
	// sorted by cost: node 2 (d=5), node 1 (d=10), node 3 (d=20)
	wantOrder := []tvg.NodeID{2, 1, 3}
	for k, lvl := range dcs {
		if lvl.Node != wantOrder[k] {
			t.Errorf("DCS[%d].Node = %d, want %d", k, lvl.Node, wantOrder[k])
		}
		if k > 0 && dcs[k].W < dcs[k-1].W {
			t.Error("DCS not sorted by cost")
		}
	}
	// Property 6.1 (broadcast nature): paying level 2's cost covers both
	covered := g.CoveredBy(0, 5, dcs[1].W)
	if len(covered) != 2 || covered[0] != 2 || covered[1] != 1 {
		t.Errorf("CoveredBy(level2) = %v, want [2 1]", covered)
	}
	all := g.CoveredBy(0, 5, dcs[2].W)
	if len(all) != 3 {
		t.Errorf("CoveredBy(level3) = %v, want 3 nodes", all)
	}
}

func TestDCSEmptyWhenIsolated(t *testing.T) {
	g := smallGraph(Static)
	if dcs := g.DCS(3, 15); len(dcs) != 0 {
		t.Errorf("DCS of isolated node = %v, want empty", dcs)
	}
}

func TestQuickMinCostMonotoneInDistance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d1 := 1 + r.Float64()*50
		d2 := d1 + r.Float64()*50
		for _, m := range []Model{Static, RayleighFading, RicianFading, NakagamiFading} {
			g := New(3, iv(0, 10), 0, testParams(), m)
			g.AddContact(0, 1, iv(0, 10), d1)
			g.AddContact(0, 2, iv(0, 10), d2)
			if g.MinCost(0, 1, 5) > g.MinCost(0, 2, 5)+1e-30 {
				return false // farther node must cost at least as much
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinCostAchievesEps(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New(2, iv(0, 10), 0, testParams(), RayleighFading)
		g.AddContact(0, 1, iv(0, 10), 1+r.Float64()*30)
		w := g.MinCost(0, 1, 5)
		ed := g.EDAt(0, 1, 5)
		return ed.FailureProb(w) <= g.Params.Eps*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
