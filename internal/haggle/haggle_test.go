package haggle

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/tveg"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := &Trace{N: 3, Horizon: 100, Contacts: []Contact{
		{0, 1, 10, 20, 5},
		{1, 2, 30, 45, 7.5},
	}}
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 3 || got.Horizon != 100 || len(got.Contacts) != 2 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range orig.Contacts {
		if got.Contacts[i] != orig.Contacts[i] {
			t.Errorf("contact %d = %+v, want %+v", i, got.Contacts[i], orig.Contacts[i])
		}
	}
}

func TestReadMissingDistanceDefaults(t *testing.T) {
	in := "# haggle-trace v1 nodes=2 horizon=50\n0 1 5 15\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Contacts[0].Dist != 10 {
		t.Errorf("Dist = %g, want default 10", got.Contacts[0].Dist)
	}
}

func TestReadNormalizesPairOrder(t *testing.T) {
	in := "# haggle-trace v1 nodes=3 horizon=50\n2 1 5 15 3\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	c := got.Contacts[0]
	if c.I != 1 || c.J != 2 {
		t.Errorf("pair = (%d,%d), want (1,2)", c.I, c.J)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"not a header\n",
		"# haggle-trace v1 nodes=2 horizon=50\n0 0 1 2 3\n", // self loop
		"# haggle-trace v1 nodes=2 horizon=50\n0 5 1 2 3\n", // out of range
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 9 2 3\n", // empty interval
		"", // no header
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 50 -3\n",   // negative distance
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 50 0\n",    // zero distance
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 50 NaN\n",  // NaN distance
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 50 +Inf\n", // infinite distance
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 NaN 3\n",   // NaN end
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 NaN 9 3\n",   // NaN start
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 -Inf 9 3\n",  // infinite start
		"# haggle-trace v1 nodes=2 horizon=50\n0 1 5 +Inf 3\n",  // infinite end
		"# haggle-trace v1 nodes=2 horizon=NaN\n0 1 5 9 3\n",    // NaN horizon
		"# haggle-trace v1 nodes=2 horizon=+Inf\n0 1 5 9 3\n",   // infinite horizon
		"# haggle-trace v1 nodes=-5 horizon=50\n",               // negative node count
	}
	for _, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) should fail", in)
		}
	}
}

func TestReadSkipsComments(t *testing.T) {
	in := "# haggle-trace v1 nodes=2 horizon=50\n# comment\n\n0 1 5 15 3\n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Contacts) != 1 {
		t.Errorf("contacts = %d, want 1", len(got.Contacts))
	}
}

func TestGenerateDefaults(t *testing.T) {
	tr := Generate(GenOptions{}, rand.New(rand.NewSource(1)))
	if tr.N != 20 || tr.Horizon != 17000 {
		t.Errorf("defaults: N=%d horizon=%g", tr.N, tr.Horizon)
	}
	if len(tr.Contacts) == 0 {
		t.Fatal("no contacts generated")
	}
	for _, c := range tr.Contacts {
		if c.Start < 0 || c.End > tr.Horizon || c.Start >= c.End {
			t.Fatalf("bad contact window %+v", c)
		}
		if c.Dist < 1 || c.Dist > 10 {
			t.Fatalf("distance %g outside [1,10]", c.Dist)
		}
		if c.I >= c.J {
			t.Fatalf("unnormalized pair %+v", c)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenOptions{}, rand.New(rand.NewSource(5)))
	b := Generate(GenOptions{}, rand.New(rand.NewSource(5)))
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatal("same seed, different contact counts")
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatal("same seed, different contacts")
		}
	}
}

func TestGenerateDegreeRamp(t *testing.T) {
	// Fig. 7 shape: average degree early in the trace is lower than in
	// the steady state after the arrival ramp.
	tr := Generate(GenOptions{}, rand.New(rand.NewSource(2)))
	g := tr.ToTVEG(0, tveg.DefaultParams(), tveg.Static)
	early := g.AverageDegreeAt(2000)
	late := 0.0
	for _, t0 := range []float64{9000, 11000, 13000} {
		late += g.AverageDegreeAt(t0)
	}
	late /= 3
	if early >= late {
		t.Errorf("degree ramp missing: early %g >= late %g", early, late)
	}
}

func TestToTVEG(t *testing.T) {
	tr := &Trace{N: 2, Horizon: 100, Contacts: []Contact{{0, 1, 10, 20, 5}}}
	g := tr.ToTVEG(1, tveg.DefaultParams(), tveg.RayleighFading)
	if g.N() != 2 || g.Tau() != 1 {
		t.Errorf("graph N=%d tau=%g", g.N(), g.Tau())
	}
	if !g.Rho(0, 1, 15) {
		t.Error("contact not materialized")
	}
	if s, ok := g.SegmentAt(0, 1, 15); !ok || s.Dist != 5 {
		t.Errorf("segment = %+v, %v", s, ok)
	}
}

func TestRestrict(t *testing.T) {
	tr := Generate(GenOptions{N: 10}, rand.New(rand.NewSource(3)))
	small := tr.Restrict(4)
	if small.N != 4 {
		t.Errorf("N = %d, want 4", small.N)
	}
	for _, c := range small.Contacts {
		if c.I >= 4 || c.J >= 4 {
			t.Fatalf("contact %+v outside restricted node set", c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Restrict(0) should panic")
		}
	}()
	tr.Restrict(0)
}

func TestQuickGeneratedTraceRoundTrips(t *testing.T) {
	f := func(seed int64) bool {
		tr := Generate(GenOptions{N: 6, Horizon: 3000}, rand.New(rand.NewSource(seed)))
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.N != tr.N || len(got.Contacts) != len(tr.Contacts) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
