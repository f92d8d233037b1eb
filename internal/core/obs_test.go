package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// TestObsScheduleInvariance pins the schedule-invariance contract of the
// observability layer (DESIGN.md "Observability"): attaching a recorder
// must not change a single byte of any planned schedule. Recording is
// write-only — no planner reads a metric back — so the instrumented and
// uninstrumented runs must serialize identically, across every algorithm,
// channel model, and worker count.
func TestObsScheduleInvariance(t *testing.T) {
	graphs := map[string]*tveg.Graph{
		"static-chain":   core.Chain(tveg.Static),
		"rayleigh-star":  core.Star(tveg.RayleighFading),
		"static-random":  core.RandomTrace(rand.New(rand.NewSource(7)), 10, tveg.Static, 1000),
		"rayleigh-trace": core.RandomTrace(rand.New(rand.NewSource(7)), 8, tveg.RayleighFading, 1000),
	}
	// with builds each scheduler twice: once disabled (nil recorder) and
	// once recording, with multi-worker pools to also cross-check the
	// parallel instrumented paths.
	type pair struct {
		name      string
		plain, on core.Scheduler
	}
	rec := func() *obs.Recorder { return obs.New() }
	pairs := []pair{
		{"EEDCB", core.EEDCB{}, core.EEDCB{Obs: rec(), Workers: 4}},
		{"GREED", core.Greedy{}, core.Greedy{Obs: rec()}},
		{"RAND", core.Random{Seed: 3}, core.Random{Seed: 3, Obs: rec()}},
		{"FR-EEDCB", core.FREEDCB{}, core.FREEDCB{Obs: rec(), Workers: 4}},
		{"FR-GREED", core.FRGreedy{}, core.FRGreedy{Obs: rec(), Workers: 4}},
		{"FR-RAND", core.FRRandom{Seed: 3}, core.FRRandom{Seed: 3, Obs: rec(), Workers: 4}},
	}
	for gname, g := range graphs {
		for _, p := range pairs {
			want, errPlain := p.plain.Schedule(g, 0, 0, g.Span().End)
			got, errOn := p.on.Schedule(g, 0, 0, g.Span().End)
			if (errPlain == nil) != (errOn == nil) {
				t.Errorf("%s on %s: error mismatch: plain=%v obs=%v", p.name, gname, errPlain, errOn)
				continue
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatalf("marshal plain: %v", err)
			}
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("marshal obs: %v", err)
			}
			if !bytes.Equal(wb, gb) {
				t.Errorf("%s on %s: schedule changed with observability on:\nplain: %s\nobs:   %s",
					p.name, gname, wb, gb)
			}
		}
	}
}

// TestObsPhaseTreeCoversPipeline pins the exact phase tree one
// instrumented solve reports, as the set of slash-joined phase paths,
// for each of the six planners and for the degradation ladder. Every
// row plans on a fresh graph, so no DTS or auxiliary-graph memo hit
// drops a child phase.
func TestObsPhaseTreeCoversPipeline(t *testing.T) {
	nlpAlloc := func(p string) []string {
		return []string{p + "/nlp-alloc", p + "/nlp-alloc/assemble", p + "/nlp-alloc/solve"}
	}
	rows := []struct {
		model tveg.Model
		alg   func(*obs.Recorder) core.Scheduler
		want  []string
	}{
		{tveg.Static, func(r *obs.Recorder) core.Scheduler { return core.EEDCB{Obs: r, Workers: 2} },
			[]string{"eedcb", "eedcb/dts", "eedcb/auxgraph", "eedcb/auxgraph/dcs-construct", "eedcb/steiner"}},
		{tveg.Static, func(r *obs.Recorder) core.Scheduler { return core.Greedy{Obs: r} },
			[]string{"greed", "greed/dts"}},
		{tveg.Static, func(r *obs.Recorder) core.Scheduler { return core.Random{Seed: 3, Obs: r} },
			[]string{"rand", "rand/dts"}},
		{tveg.RayleighFading, func(r *obs.Recorder) core.Scheduler { return core.FREEDCB{Obs: r, Workers: 2} },
			append([]string{"fr-eedcb", "fr-eedcb/dts", "fr-eedcb/auxgraph", "fr-eedcb/auxgraph/dcs-construct",
				"fr-eedcb/steiner"}, nlpAlloc("fr-eedcb")...)},
		{tveg.RayleighFading, func(r *obs.Recorder) core.Scheduler { return core.FRGreedy{Obs: r, Workers: 2} },
			append([]string{"fr-greed", "fr-greed/dts"}, nlpAlloc("fr-greed")...)},
		{tveg.RayleighFading, func(r *obs.Recorder) core.Scheduler { return core.FRRandom{Seed: 3, Obs: r, Workers: 2} },
			append([]string{"fr-rand", "fr-rand/dts"}, nlpAlloc("fr-rand")...)},
		{tveg.RayleighFading, func(r *obs.Recorder) core.Scheduler { return ladder{r} },
			append([]string{"degrade", "degrade/dts", "degrade/degrade.rung", "degrade/degrade.rung/fr-eedcb",
				"degrade/degrade.rung/fr-eedcb/auxgraph", "degrade/degrade.rung/fr-eedcb/auxgraph/dcs-construct",
				"degrade/degrade.rung/fr-eedcb/steiner"}, nlpAlloc("degrade/degrade.rung/fr-eedcb")...)},
	}
	for _, row := range rows {
		r := obs.New()
		alg := row.alg(r)
		g := core.RandomTrace(rand.New(rand.NewSource(11)), 8, row.model, 1000)
		if _, err := alg.Schedule(g, 0, 0, 1000); err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		var got []string
		for path := range r.Snapshot(nil).PhaseWallMS() {
			got = append(got, path)
		}
		sort.Strings(got)
		sort.Strings(row.want)
		if strings.Join(got, " ") != strings.Join(row.want, " ") {
			t.Errorf("%s phase paths:\n got  %v\n want %v", alg.Name(), got, row.want)
		}
	}
}

// TestObsNLPPhases checks the fading pipeline adds the allocation phases
// on the star graph, whose short deadline differs from the table's trace.
func TestObsNLPPhases(t *testing.T) {
	r := obs.New()
	g := core.Star(tveg.RayleighFading)
	if _, err := (core.FREEDCB{Obs: r, Workers: 2}).Schedule(g, 0, 0, 100); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	phases := r.Snapshot(nil).PhaseWallMS()
	for _, want := range []string{
		"fr-eedcb",
		"fr-eedcb/nlp-alloc",
		"fr-eedcb/nlp-alloc/assemble",
		"fr-eedcb/nlp-alloc/solve",
	} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phase %q missing; got %v", want, phases)
		}
	}
}

// ladder runs the degradation ladder with a budget no rung exhausts.
type ladder struct{ obs *obs.Recorder }

func (ladder) Name() string { return "degrade" }

func (l ladder) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return l.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

func (l ladder) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	s, _, err := degrade.Solve(ctx, g, src, t0, deadline, degrade.Options{Budget: time.Minute, Workers: 2, Obs: l.obs})
	return s, err
}
