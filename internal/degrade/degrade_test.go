package degrade

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

func iv(a, b float64) interval.Interval { return interval.Interval{Start: a, End: b} }

// testTrace builds a connected random contact trace (the same shape the
// core tests use) with guaranteed eventual reachability from node 0.
func testTrace(n int, m tveg.Model, seed int64) *tveg.Graph {
	r := rand.New(rand.NewSource(seed))
	const horizon = 1000.0
	g := tveg.New(n, iv(0, horizon), 0, tveg.DefaultParams(), m)
	for c := 0; c < 4*n; c++ {
		i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		s := r.Float64() * horizon * 0.7
		g.AddContact(i, j, iv(s, s+horizon*0.05+r.Float64()*horizon*0.1), 1+r.Float64()*25)
	}
	for j := 1; j < n; j++ {
		s := horizon*0.8 + r.Float64()*horizon*0.1
		g.AddContact(0, tvg.NodeID(j), iv(s, s+horizon*0.05), 1+r.Float64()*25)
	}
	return g
}

// usable follows the Scheduler convention: nil and *core.IncompleteError
// both mean the returned schedule is valid for the nodes it covers.
func usable(err error) error {
	var ie *core.IncompleteError
	if err == nil || errors.As(err, &ie) {
		return nil
	}
	return err
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestRungStringParseRoundTrip(t *testing.T) {
	for r := Rung(0); int(r) < numRungs; r++ {
		got, err := ParseRung(r.String())
		if err != nil || got != r {
			t.Errorf("ParseRung(%q) = %v, %v; want %v", r.String(), got, err, r)
		}
	}
	if _, err := ParseRung("bogus"); err == nil {
		t.Error("ParseRung(bogus) succeeded")
	}
}

func TestParseLadder(t *testing.T) {
	got, err := ParseLadder("")
	if err != nil {
		t.Fatal(err)
	}
	if mustJSON(t, got) != mustJSON(t, DefaultLadder()) {
		t.Errorf("empty ladder = %v, want default %v", got, DefaultLadder())
	}
	got, err = ParseLadder("greed, rand")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != RungGreed || got[1] != RungRand {
		t.Errorf("ParseLadder(greed, rand) = %v", got)
	}
	if _, err := ParseLadder("full,nope"); err == nil {
		t.Error("ParseLadder(full,nope) succeeded")
	}
}

// TestRungFor pins the alg→rung lookup that bounds a daemon request's
// ladder: a GREED or RAND request of either family, in any case, starts
// at its own rung, and every other name at RungFull.
func TestRungFor(t *testing.T) {
	want := map[string]Rung{
		"EEDCB": RungFull, "GREED": RungGreed, "RAND": RungRand,
		"FR-EEDCB": RungFull, "FR-GREED": RungGreed, "FR-RAND": RungRand,
	}
	for _, name := range core.Names {
		for _, s := range []string{name, strings.ToLower(name)} {
			if got, ok := want[name]; !ok || RungFor(s) != got {
				t.Errorf("RungFor(%q) = %v, want %v", s, RungFor(s), got)
			}
		}
	}
	for _, s := range []string{"", "mst", "fr-", "spt"} {
		if got := RungFor(s); got != RungFull {
			t.Errorf("RungFor(%q) = %v, want full", s, got)
		}
	}
}

// TestRungPlanners pins each rung's planner in both families: the
// core.Names planner the rung names, FR- on fading graphs, at level 1
// on the SPT rung, and RAND for a rung outside the ladder.
func TestRungPlanners(t *testing.T) {
	o := Options{Level: 3, Workers: 2, Seed: 5}
	rec := obs.New()
	for _, c := range []struct {
		rung           Rung
		static, fading core.Scheduler
	}{
		{RungFull, core.EEDCB{Level: 3, Workers: 2, Obs: rec}, core.FREEDCB{Level: 3, Workers: 2, Obs: rec}},
		{RungSPT, core.EEDCB{Level: 1, Workers: 2, Obs: rec}, core.FREEDCB{Level: 1, Workers: 2, Obs: rec}},
		{RungGreed, core.Greedy{Obs: rec}, core.FRGreedy{Workers: 2, Obs: rec}},
		{RungRand, core.Random{Seed: 5, Obs: rec}, core.FRRandom{Seed: 5, Workers: 2, Obs: rec}},
		{Rung(numRungs), core.Random{Seed: 5, Obs: rec}, core.FRRandom{Seed: 5, Workers: 2, Obs: rec}},
		{Rung(-1), core.Random{Seed: 5, Obs: rec}, core.FRRandom{Seed: 5, Workers: 2, Obs: rec}},
	} {
		if got := o.planner(c.rung, false, rec); got != c.static {
			t.Errorf("%v static planner = %#v, want %#v", c.rung, got, c.static)
		}
		if got := o.planner(c.rung, true, rec); got != c.fading {
			t.Errorf("%v fading planner = %#v, want %#v", c.rung, got, c.fading)
		}
	}
}

// TestUnbudgetedRungMatchesDirectPlanner pins the determinism contract
// per rung: with Budget <= 0 the orchestrator runs exactly one rung
// under the caller's context, and its schedule must be byte-identical to
// calling that rung's planner directly — the ladder machinery adds
// nothing to the result.
func TestUnbudgetedRungMatchesDirectPlanner(t *testing.T) {
	const seed = 3
	cases := []struct {
		name   string
		model  tveg.Model
		rung   Rung
		direct core.Scheduler
	}{
		{"full/static", tveg.Static, RungFull, core.EEDCB{}},
		{"spt/static", tveg.Static, RungSPT, core.EEDCB{Level: 1}},
		{"greed/static", tveg.Static, RungGreed, core.Greedy{}},
		{"rand/static", tveg.Static, RungRand, core.Random{Seed: seed}},
		{"full/rayleigh", tveg.RayleighFading, RungFull, core.FREEDCB{}},
		{"spt/rayleigh", tveg.RayleighFading, RungSPT, core.FREEDCB{Level: 1}},
		{"greed/rayleigh", tveg.RayleighFading, RungGreed, core.FRGreedy{}},
		{"rand/rayleigh", tveg.RayleighFading, RungRand, core.FRRandom{Seed: seed}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := testTrace(10, c.model, 7)
			want, errW := c.direct.Schedule(g, 0, 0, 1000)
			if usable(errW) != nil {
				t.Fatalf("direct: %v", errW)
			}
			s, out, errS := Solve(context.Background(), g, 0, 0, 1000,
				Options{Ladder: []Rung{c.rung}, Seed: seed})
			if usable(errS) != nil {
				t.Fatalf("Solve: %v", errS)
			}
			if (errW == nil) != (errS == nil) {
				t.Fatalf("error mismatch: direct=%v ladder=%v", errW, errS)
			}
			if out == nil || out.Rung != c.rung {
				t.Fatalf("outcome = %+v, want rung %v", out, c.rung)
			}
			if out.Reason != "" || len(out.Attempts) != 0 {
				t.Errorf("unbudgeted outcome carries attempts: %+v", out)
			}
			if mustJSON(t, want) != mustJSON(t, s) {
				t.Errorf("ladder schedule differs from direct planner:\ndirect %s\nladder %s",
					mustJSON(t, want), mustJSON(t, s))
			}
		})
	}
}

// TestSolveDeterministicAcrossRunsAndWorkers: same seed + same rung ⇒
// byte-identical schedule, run to run and across worker-pool widths.
func TestSolveDeterministicAcrossRunsAndWorkers(t *testing.T) {
	g := testTrace(10, tveg.Static, 7)
	base := ""
	for run := 0; run < 2; run++ {
		for _, w := range []int{1, 4} {
			s, out, err := Solve(context.Background(), g, 0, 0, 1000,
				Options{Workers: w, Seed: 3})
			if usable(err) != nil {
				t.Fatalf("run %d workers %d: %v", run, w, err)
			}
			if out.Rung != RungFull {
				t.Fatalf("run %d workers %d: rung %v, want full", run, w, out.Rung)
			}
			if j := mustJSON(t, s); base == "" {
				base = j
			} else if j != base {
				t.Fatalf("run %d workers %d: schedule differs:\nbase %s\ngot  %s", run, w, base, j)
			}
		}
	}
}

// tripRungs returns an Inject seam that cancels the listed rungs at
// their first checkpoint and leaves every other rung untouched.
func tripRungs(rungs ...Rung) func(Rung, context.Context) context.Context {
	return func(r Rung, ctx context.Context) context.Context {
		for _, tr := range rungs {
			if r == tr {
				return cancel.WithTrip(ctx, cancel.NewTrip(0))
			}
		}
		return ctx
	}
}

// fakeClock returns a Clock that advances by step on every reading, so
// budget arithmetic is deterministic regardless of real planner speed.
func fakeClock(step time.Duration) func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

// TestRungMonotoneInBudget drives the ladder with an injected clock and
// per-rung fault injection: shrinking the budget must move the outcome
// weakly down the ladder (a larger budget never yields a worse rung).
func TestRungMonotoneInBudget(t *testing.T) {
	g := testTrace(10, tveg.Static, 7)
	solve := func(budget time.Duration) *Outcome {
		t.Helper()
		s, out, err := Solve(context.Background(), g, 0, 0, 1000, Options{
			Budget: budget,
			Seed:   3,
			Clock:  fakeClock(time.Millisecond),
			Inject: tripRungs(RungFull, RungSPT),
		})
		if usable(err) != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if len(s) == 0 {
			t.Fatalf("budget %v: empty schedule", budget)
		}
		return out
	}
	// Generous budget: full and spt are injected away, greed answers.
	big := solve(time.Hour)
	if big.Rung != RungGreed {
		t.Fatalf("big budget: rung %v, want greed (attempts %+v)", big.Rung, big.Attempts)
	}
	if len(big.Attempts) != 2 || big.Reason == "" {
		t.Errorf("big budget: attempts %+v reason %q, want 2 abandoned rungs", big.Attempts, big.Reason)
	}
	// Tiny budget: by the time greed's turn comes the fake clock has
	// consumed the budget, so the ladder skips to the rung of last
	// resort.
	small := solve(2500 * time.Microsecond)
	if small.Rung != RungRand {
		t.Fatalf("small budget: rung %v, want rand (attempts %+v)", small.Rung, small.Attempts)
	}
	if small.Rung < big.Rung {
		t.Fatalf("rung not monotone: budget %v→%v but rung %v→%v",
			2500*time.Microsecond, time.Hour, small.Rung, big.Rung)
	}
}

// TestParentContextDeathIsHardStop: when the caller's own context dies,
// the orchestrator must not burn the remaining rungs — it returns the
// typed cancellation error with no schedule and no outcome.
func TestParentContextDeathIsHardStop(t *testing.T) {
	g := testTrace(10, tveg.Static, 7)
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	s, out, err := Solve(ctx, g, 0, 0, 1000, Options{Budget: time.Hour})
	if s != nil || out != nil {
		t.Fatalf("dead context produced a result: s=%v out=%+v", s, out)
	}
	if !errors.Is(err, cancel.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
}

func TestOutcomeAnnotate(t *testing.T) {
	var none *Outcome
	none.Annotate(nil) // nil receiver and nil meta must both no-op
	m := &schedule.Meta{Algorithm: "EEDCB"}
	none.Annotate(m)
	if m.Algorithm != "EEDCB" || m.DegradeRung != "" {
		t.Fatalf("nil outcome mutated meta: %+v", m)
	}
	out := &Outcome{Rung: RungGreed, Algorithm: "GREED", Reason: "full: budget"}
	out.Annotate(m)
	if m.Algorithm != "GREED" || m.DegradeRung != "greed" || m.DegradeReason != "full: budget" {
		t.Fatalf("Annotate: %+v", m)
	}
}

// TestSolveObsCounters: abandoned rungs must be visible in the metrics
// registry — one rung_transitions per fallthrough and a taxonomy counter
// per cancellation cause. The rungs share the DTS through the memo: the
// ladder's own build misses, and the full and spt rungs both hit.
func TestSolveObsCounters(t *testing.T) {
	g := testTrace(10, tveg.Static, 7)
	rec := obs.New()
	_, out, err := Solve(context.Background(), g, 0, 0, 1000, Options{
		Budget: time.Hour,
		Inject: tripRungs(RungFull),
		Obs:    rec,
	})
	if usable(err) != nil {
		t.Fatal(err)
	}
	if out.Rung != RungSPT {
		t.Fatalf("rung %v, want spt", out.Rung)
	}
	if n := rec.Counter("degrade.rung_transitions").Value(); n != 1 {
		t.Errorf("rung_transitions = %d, want 1", n)
	}
	if n := rec.Counter("degrade.budget_exceeded").Value(); n != 1 {
		t.Errorf("budget_exceeded = %d, want 1", n)
	}
	if n := rec.Counter("degrade.cancelled").Value(); n != 0 {
		t.Errorf("cancelled = %d, want 0", n)
	}
	if n := rec.Counter("dts.memo.misses").Value(); n != 1 {
		t.Errorf("dts.memo.misses = %d, want 1", n)
	}
	if n := rec.Counter("dts.memo.hits").Value(); n != 2 {
		t.Errorf("dts.memo.hits = %d, want 2", n)
	}
}

// TestFallbackFeasible is the ladder's core safety property: whatever
// rung ends up answering, the schedule still satisfies the §IV delay and
// residual-failure conditions, on both channel families.
func TestFallbackFeasible(t *testing.T) {
	cases := []struct {
		name  string
		model tveg.Model
		trip  []Rung
		want  Rung
	}{
		{"static/spt", tveg.Static, []Rung{RungFull}, RungSPT},
		{"static/greed", tveg.Static, []Rung{RungFull, RungSPT}, RungGreed},
		{"static/rand", tveg.Static, []Rung{RungFull, RungSPT, RungGreed}, RungRand},
		{"rayleigh/spt", tveg.RayleighFading, []Rung{RungFull}, RungSPT},
		{"rayleigh/greed", tveg.RayleighFading, []Rung{RungFull, RungSPT}, RungGreed},
		{"rayleigh/rand", tveg.RayleighFading, []Rung{RungFull, RungSPT, RungGreed}, RungRand},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := testTrace(8, c.model, 7)
			s, out, err := Solve(context.Background(), g, 0, 0, 1000, Options{
				Budget: time.Hour,
				Seed:   3,
				Inject: tripRungs(c.trip...),
			})
			if err != nil {
				// Full coverage is expected on this fixture; an
				// IncompleteError here would make CheckFeasible vacuous.
				t.Fatalf("Solve: %v", err)
			}
			if out.Rung != c.want {
				t.Fatalf("rung %v, want %v (attempts %+v)", out.Rung, c.want, out.Attempts)
			}
			if ferr := schedule.CheckFeasible(g, s, 0, 1000, math.Inf(1)); ferr != nil {
				t.Errorf("fallback schedule infeasible: %v", ferr)
			}
		})
	}
}
