package audit

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/schedule"
	"repro/internal/tveg"
)

// TestGenerateCaseDeterministic: the oracle must be reproducible from
// the seed alone, or a CI failure could not be replayed locally.
func TestGenerateCaseDeterministic(t *testing.T) {
	a, b := GenerateCase(42), GenerateCase(42)
	if a.String() != b.String() {
		t.Fatalf("case header differs:\n%v\n%v", a, b)
	}
	if len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("schedule length differs: %d vs %d", len(a.Schedule), len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedule row %d differs: %v vs %v", i, a.Schedule[i], b.Schedule[i])
		}
	}
}

// TestGeneratorCoversAxes: across a modest seed range, the generator
// must exercise every τ regime, both channel models, at least one
// planner-produced schedule, one planner claiming full coverage (the
// coverage oracle) and one case the energy oracle applies to —
// otherwise the differential test silently stops covering the semantics
// it exists to pin.
func TestGeneratorCoversAxes(t *testing.T) {
	taus := map[float64]bool{}
	models := map[bool]bool{}
	planner, claimed, bounded := false, false, false
	for seed := int64(0); seed < 60; seed++ {
		c := GenerateCase(seed)
		taus[c.Graph.Tau()] = true
		models[c.Graph.Model.Fading()] = true
		if c.Kind != "random" {
			planner = true
		}
		claimed = claimed || c.Complete
		bounded = bounded || (c.Kind != "random" && !c.Graph.Model.Fading() && firstLate(c) < 0)
	}
	if len(taus) != 3 {
		t.Fatalf("τ coverage %v, want {0, 0.5, 7}", taus)
	}
	if len(models) != 2 {
		t.Fatalf("model coverage %v, want static and fading", models)
	}
	if !planner {
		t.Fatal("no planner-produced schedule in 60 seeds")
	}
	if !claimed {
		t.Fatal("no case for the coverage oracle in 60 seeds")
	}
	if !bounded {
		t.Fatal("no case for the energy oracle in 60 seeds")
	}
}

// TestDifferentialOracle is the acceptance gate: at least 200 randomized
// (graph, schedule, τ) cases through all executors with zero
// disagreements. Mismatch output includes the reference event trace, so
// a failure here is directly diagnosable.
func TestDifferentialOracle(t *testing.T) {
	cases := 240
	if testing.Short() {
		cases = 60
	}
	rep := RunDifferential(cases, 1)
	if !rep.Ok() {
		t.Fatalf("differential audit failed:\n%s", rep)
	}
	if rep.Cases < cases {
		t.Fatalf("ran %d cases, want %d", rep.Cases, cases)
	}
	t.Logf("clean: %d cases, kinds %v", rep.Cases, rep.ByKind)
}

// TestReportStringSortsKeys: the audit summaries print their per-kind,
// per-mix and per-base rows in ascending key order, so identical runs
// print identical text whatever the map iteration order.
func TestReportStringSortsKeys(t *testing.T) {
	rep := Report{Cases: 500, ByKind: map[string]int{
		"random": 388, "EEDCB": 28, "FR-EEDCB": 19, "GREED": 18, "RAND": 11, "FR-GREED": 16, "FR-RAND": 20,
	}}
	edit := EditReport{Cases: 30,
		ByMix:  map[string]int{"retime-heavy": 10, "add-heavy": 10, "remove-heavy": 10},
		ByBase: map[string]int{"synthetic": 20, "haggle": 10},
	}
	for run := 0; run < 20; run++ {
		for _, tc := range []struct {
			text   string
			groups []int // row counts of the consecutive key groups
		}{{rep.String(), []int{7}}, {edit.String(), []int{3, 2}}} {
			rows := strings.Split(strings.TrimSpace(tc.text), "\n")[1:]
			for _, size := range tc.groups {
				keys := make([]string, size)
				for i := range keys {
					keys[i] = strings.Fields(rows[i])[0]
				}
				if !sort.StringsAreSorted(keys) {
					t.Fatalf("run %d: keys %v not ascending in\n%s", run, keys, tc.text)
				}
				rows = rows[size:]
			}
		}
	}
}

// TestCoverageOracle: the pair (0, 1) has two overlapping contacts whose
// distance drops from 10 to 2 at 50, inside one presence interval.
// EEDCB's schedule must reach every node, as it claims; the schedule it
// planned while the ET-law moved a transmission back across that change
// (v0 at 10 with the cost sized for distance 2) must be flagged.
func TestCoverageOracle(t *testing.T) {
	g := tveg.New(3, interval.Interval{Start: 0, End: 100}, 0, tveg.DefaultParams(), tveg.Static)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 50}, 10)
	g.AddContact(0, 1, interval.Interval{Start: 30, End: 80}, 2)
	g.AddContact(1, 2, interval.Interval{Start: 60, End: 90}, 5)
	c := Case{Graph: g, Src: 0, T0: 0, Deadline: 100, CostBound: math.Inf(1), Kind: "EEDCB"}
	s, err := core.EEDCB{}.Schedule(g, c.Src, c.T0, c.Deadline)
	c.Schedule, c.Complete = s, err == nil
	if !c.Complete {
		t.Fatalf("EEDCB: %v", err)
	}
	if diffs := CompareCase(c); len(diffs) > 0 {
		t.Fatalf("EEDCB schedule %v: %v", s, diffs)
	}
	c.Schedule = schedule.Schedule{
		{Relay: 0, T: 10, W: g.MinCost(0, 1, 60)},
		{Relay: 1, T: 60, W: g.MinCost(1, 2, 60)},
	}
	if diffs := CompareCase(c); len(diffs) != 1 || !strings.Contains(diffs[0], "reports full coverage") {
		t.Fatalf("moved-back schedule %v: diffs %v, want one coverage report", c.Schedule, diffs)
	}
}
