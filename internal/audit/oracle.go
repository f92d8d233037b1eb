package audit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Case is one randomized differential-audit instance: a seeded TVEG, a
// schedule (random or planner-produced), and the decision-problem
// parameters every feasibility check sees.
type Case struct {
	Seed      int64
	Graph     *tveg.Graph
	Schedule  schedule.Schedule
	Src       tvg.NodeID
	T0        float64
	Deadline  float64
	CostBound float64
	// Kind labels how the schedule was produced ("random" or the
	// planner's name).
	Kind string
	// Complete records that the planner returned no IncompleteError,
	// claiming that its schedule informs every node by the deadline.
	Complete bool
}

func (c Case) String() string {
	return fmt.Sprintf("case{seed=%d n=%d model=%v τ=%g kind=%s |S|=%d src=v%d window=[%g,%g] C=%g}",
		c.Seed, c.Graph.N(), c.Graph.Model, c.Graph.Tau(), c.Kind, len(c.Schedule), c.Src, c.T0, c.Deadline, c.CostBound)
}

// GenerateCase derives a full audit case from a seed. The generator
// sweeps the axes the τ-unification bugs lived on: τ ∈ {0, small,
// large}, static step vs. Rayleigh fading channels, equal-time
// transmission groups, non-stop chains scheduled exactly τ apart, and
// premature relays scheduled inside a packet's [t, t+τ) flight window.
//
// Costs are drawn so that failure probabilities stay clear of the
// (MaxDraw, 1) sliver where the optimistic reference and the
// ForceSuccess-driven Monte Carlo executors could disagree: either 0
// (φ = 1 exactly) or at least 0.4× a minimum ε-cost (φ <= ~0.9 under
// Rayleigh with the generator's distance range).
func GenerateCase(seed int64) Case {
	rnd := rng.New(seed)
	n := 4 + rnd.Intn(7)
	tau := []float64{0, 0.5, 7}[rnd.Intn(3)]
	model := tveg.Static
	if rnd.Intn(2) == 1 {
		model = tveg.RayleighFading
	}
	g := randomTVEG(rnd, n, tau, model)
	src := tvg.NodeID(rnd.Intn(n))
	t0 := 20 * rnd.Float64()
	deadline := t0 + 50 + 100*rnd.Float64()

	c := Case{Seed: seed, Graph: g, Src: src, T0: t0, Deadline: deadline, CostBound: math.Inf(1)}
	if rnd.Intn(4) == 3 {
		c.Schedule, c.Kind, c.Complete = plannerSchedule(rnd, g, src, t0, deadline)
	}
	if c.Schedule == nil {
		c.Schedule, c.Kind = randomSchedule(rnd, g, src, t0, deadline), "random"
	}
	if rnd.Intn(4) == 0 && len(c.Schedule) > 0 {
		// A finite budget between 30% and 130% of the actual cost
		// exercises condition (iv) on both sides.
		c.CostBound = c.Schedule.TotalCost() * (0.3 + rnd.Float64())
	}
	return c
}

// randomTVEG builds a seeded TVEG over the span [0, 200): a random
// spanning chain (so most broadcasts can make progress) plus random
// extra contacts.
func randomTVEG(rng *rand.Rand, n int, tau float64, model tveg.Model) *tveg.Graph {
	g := tveg.New(n, interval.Interval{Start: 0, End: 200}, tau, tveg.DefaultParams(), model)
	contact := func(i, j tvg.NodeID) {
		start := 140 * rng.Float64()
		iv := interval.Interval{Start: start, End: start + 15 + 40*rng.Float64()}
		g.AddContact(i, j, iv, 5+10*rng.Float64())
	}
	for i := 1; i < n; i++ {
		contact(tvg.NodeID(rng.Intn(i)), tvg.NodeID(i))
	}
	for k := 0; k < n; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			contact(tvg.NodeID(i), tvg.NodeID(j))
		}
	}
	return g
}

// randomSchedule draws 1..2n transmissions with adversarial time
// structure: fresh uniform times, reuses of earlier times (equal-time
// groups), exact non-stop chains at +τ, premature relays inside
// [t, t+τ), and a few departures beyond the deadline.
func randomSchedule(rng *rand.Rand, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) schedule.Schedule {
	tau := g.Tau()
	k := 1 + rng.Intn(2*g.N())
	var s schedule.Schedule
	for len(s) < k {
		relay := tvg.NodeID(rng.Intn(g.N()))
		var t float64
		switch pick := rng.Float64(); {
		case len(s) > 0 && pick < 0.2:
			t = s[rng.Intn(len(s))].T // join an equal-time group
		case len(s) > 0 && tau > 0 && pick < 0.45:
			base := s[rng.Intn(len(s))].T
			if rng.Intn(2) == 0 {
				t = base + tau // legitimate non-stop chain hop
			} else {
				t = base + tau*rng.Float64() // premature: inside the flight window
			}
		case pick < 0.5:
			t = deadline + 5*rng.Float64() // beyond the deadline: condition (iii)
		default:
			t = t0 + (deadline-t0)*rng.Float64()
		}
		s = append(s, schedule.Transmission{Relay: relay, T: t, W: costFor(rng, g, relay, t)})
	}
	s.SortByTime()
	return s
}

// costFor picks a transmission cost aimed at a random ever-neighbor:
// usually the ε-minimum cost (or a multiple), sometimes an insufficient
// half, sometimes zero (φ = 1 exactly).
func costFor(rng *rand.Rand, g *tveg.Graph, relay tvg.NodeID, t float64) float64 {
	nbs := g.EverNeighbors(relay)
	if len(nbs) == 0 {
		return 0
	}
	w := g.MinCost(relay, nbs[rng.Intn(len(nbs))], t)
	if math.IsInf(w, 1) {
		// Edge absent at t: price as if at a mid-range distance so the
		// row still stresses the in-range checks of other receivers.
		w = g.Params.NoiseGamma() * 100
	}
	return w * []float64{0, 0.5, 1, 1, 2}[rng.Intn(5)]
}

// plannerSchedule runs one of the §VI/§VII planners appropriate for the
// channel model and reports whether it claimed full coverage.
// Best-effort schedules behind IncompleteError are kept (they are valid
// and exercise partial coverage); any other failure falls back to nil
// and the caller uses a random schedule.
func plannerSchedule(rng *rand.Rand, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, string, bool) {
	var alg core.Scheduler
	if g.Model.Fading() {
		alg = []core.Scheduler{
			core.FREEDCB{Level: 1},
			core.FRGreedy{},
			core.FRRandom{Seed: rng.Int63()},
		}[rng.Intn(3)]
	} else {
		alg = []core.Scheduler{
			core.EEDCB{Level: 1},
			core.EEDCB{Level: 2},
			core.Greedy{},
			core.Random{Seed: rng.Int63()},
		}[rng.Intn(4)]
	}
	s, err := alg.Schedule(g, src, t0, deadline)
	if err != nil {
		var ie *core.IncompleteError
		if !errors.As(err, &ie) {
			return nil, "", false
		}
	}
	return s, alg.Name(), err == nil
}

// CompareSchedule runs one (graph, schedule) instance through the
// reference executor, sim.Evaluate, des.Execute, schedule.CheckFeasible,
// and the independent Feasibility check, and returns one line per
// disagreement (nil when all executors agree). It also holds the
// reference and des.Execute to the delay oracle: no node is informed
// before its foremost-journey arrival.
func CompareSchedule(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, t0, deadline, costBound float64) []string {
	var diffs []string
	report := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	ref := Execute(g, s, src, Options{T0: t0})
	n := g.N()
	gamma := g.Params.GammaTh

	// Delay oracle: a packet travels along a journey, so no executor can
	// inform a node before the foremost journey from (src, t0) arrives.
	// EarliestArrivals reaches ρ_τ through eroded presence, not through
	// the executors' shared window test, so a ρ_τ fault they all share
	// shows here. No slack: the bound is exact.
	foremost := g.EarliestArrivals(src, t0)
	early := func(executor string, informedAt []float64) {
		for i, t := range informedAt {
			if t < foremost[i] {
				report("%s informs v%d at %g, before its foremost arrival %g", executor, i, t, foremost[i])
			}
		}
	}
	early("reference", ref.RecvAt)

	// sim.Evaluate under forced success: delivery and consumed energy.
	ev := sim.Evaluate(g, s, src, 1, ForceSuccess())
	if d := int(math.Round(ev.MeanDelivery * float64(n))); d != ref.Delivered {
		report("sim.Evaluate delivered %d nodes, reference delivered %d", d, ref.Delivered)
	}
	if want := ref.ConsumedEnergy / gamma; !closeRel(ev.MeanEnergy, want) {
		report("sim.Evaluate consumed %g (normalized), reference %g", ev.MeanEnergy, want)
	}

	// des.Execute under forced success: per-node reception times,
	// delivery, energy. Interference off — the collision model is a
	// deliberately different semantics.
	dres, err := des.Execute(g, s, src, t0, des.ExecOptions{}, ForceSuccess())
	if err != nil {
		report("des.Execute failed: %v", err)
	} else {
		early("des.Execute", dres.InformedAt)
		for i := 0; i < n; i++ {
			if !closeTime(dres.InformedAt[i], ref.RecvAt[i]) {
				report("des.Execute informs v%d at %g, reference at %g", i, dres.InformedAt[i], ref.RecvAt[i])
			}
		}
		if dres.Delivered != ref.Delivered {
			report("des.Execute delivered %d nodes, reference delivered %d", dres.Delivered, ref.Delivered)
		}
		if !closeRel(dres.ConsumedEnergy, ref.ConsumedEnergy) {
			report("des.Execute consumed %g J, reference %g J", dres.ConsumedEnergy, ref.ConsumedEnergy)
		}
	}

	// Feasibility verdicts: CheckFeasible vs. the independent recoding.
	cfCond, cfDetail := 0, ""
	if err := schedule.CheckFeasible(g, s, src, deadline, costBound); err != nil {
		v := err.(*schedule.Violation)
		cfCond, cfDetail = v.Condition, v.Detail
	}
	aCond, aDetail := Feasibility(g, s, src, deadline, costBound)
	if cfCond != aCond {
		report("CheckFeasible verdict %d (%s), independent check %d (%s)", cfCond, cfDetail, aCond, aDetail)
	}

	// A feasible verdict implies the optimistic execution succeeds
	// outright: conditions (i)+(ii) put every relay's and every node's
	// uninformed probability at <= ε < MaxDraw^m for any schedule-sized
	// m, so some informing factor is below MaxDraw and the Possible
	// rule grants the reception. Fired relays, full delivery, and
	// arrivals within the deadline all follow.
	if cfCond == 0 {
		if ref.Delivered != n {
			report("schedule is feasible but reference delivered only %d/%d nodes", ref.Delivered, n)
		}
		for k, fired := range ref.Fired {
			if !fired {
				report("schedule is feasible but transmission #%d %v never fired", k, ref.Ordered[k])
			}
		}
		for i, t := range ref.RecvAt {
			if t > deadline+schedule.TimeTol {
				report("schedule is feasible but v%d is informed at %g, after T=%g", i, t, deadline)
			}
		}
	}
	return diffs
}

// CompareCase audits one generated case. A planner's schedule also
// meets two oracles that hold it to what the planner claims:
//   - Coverage: a planner that returned no IncompleteError claims to
//     inform every node by the deadline, so the reference executor must
//     do so. It applies on static graphs, and to the FR planners, which
//     allocate energy on the true channel, on any graph.
//   - Energy: on a static graph, a schedule that informs every node by
//     the deadline cannot cost less than core.LowerBound, the
//     auxiliary-graph distance to the hardest node. On fading graphs the
//     NLP may cover a node with several transmissions that each cost
//     less than the ε-cost, so the bound is not certified there; a
//     partial coverage may cost less than the bound, which prices
//     informing every node.
func CompareCase(c Case) []string {
	diffs := CompareSchedule(c.Graph, c.Schedule, c.Src, c.T0, c.Deadline, c.CostBound)
	if c.Kind == "random" {
		return diffs
	}
	late := firstLate(c)
	fading := c.Graph.Model.Fading()
	if c.Complete && late >= 0 && (!fading || strings.HasPrefix(c.Kind, "FR-")) {
		diffs = append(diffs, fmt.Sprintf("%s reports full coverage, but the reference executor leaves v%d uninformed by T=%g", c.Kind, late, c.Deadline))
	}
	if fading || late >= 0 {
		return diffs
	}
	lb, _, err := core.LowerBound(c.Graph, c.Src, c.T0, c.Deadline)
	if err != nil {
		return append(diffs, fmt.Sprintf("lower bound failed: %v", err))
	}
	if cost := c.Schedule.TotalCost(); cost < lb*(1-1e-9) {
		diffs = append(diffs, fmt.Sprintf("%s costs %g, below the certified lower bound %g", c.Kind, cost, lb))
	}
	return diffs
}

// firstLate returns the first node that the reference executor leaves
// uninformed by c's deadline, or -1 when it informs every node in time.
func firstLate(c Case) tvg.NodeID {
	for i, t := range Execute(c.Graph, c.Schedule, c.Src, Options{T0: c.T0}).RecvAt {
		if t > c.Deadline+schedule.TimeTol {
			return tvg.NodeID(i)
		}
	}
	return -1
}

// Mismatch is one failed case of a differential run, with the reference
// executor's event trace attached for diagnosis.
type Mismatch struct {
	Case  Case
	Diffs []string
	Trace string
}

func (m Mismatch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", m.Case)
	fmt.Fprintf(&b, "  schedule: %v\n", m.Case.Schedule)
	for _, d := range m.Diffs {
		fmt.Fprintf(&b, "  MISMATCH: %s\n", d)
	}
	b.WriteString("  reference trace:\n")
	for _, line := range strings.Split(strings.TrimRight(m.Trace, "\n"), "\n") {
		fmt.Fprintf(&b, "    %s\n", line)
	}
	return b.String()
}

// Report summarizes a differential run.
type Report struct {
	Cases      int
	ByKind     map[string]int
	Mismatches []Mismatch
}

// Ok reports a clean run.
func (r Report) Ok() bool { return len(r.Mismatches) == 0 }

func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d cases, %d mismatches\n", r.Cases, len(r.Mismatches))
	for _, kind := range sortedKeys(r.ByKind) {
		fmt.Fprintf(&b, "  %-10s %d\n", kind, r.ByKind[kind])
	}
	for _, m := range r.Mismatches {
		b.WriteString(m.String())
	}
	return b.String()
}

// sortedKeys returns m's keys in ascending order, so a summary prints
// the same text on every run.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// RunDifferential generates and audits `cases` seeded cases starting at
// baseSeed. Every mismatch carries the reference event trace.
func RunDifferential(cases int, baseSeed int64) Report {
	rep := Report{ByKind: map[string]int{}}
	for k := 0; k < cases; k++ {
		c := GenerateCase(baseSeed + int64(k))
		rep.Cases++
		rep.ByKind[c.Kind]++
		if diffs := CompareCase(c); len(diffs) > 0 {
			tr := Execute(c.Graph, c.Schedule, c.Src, Options{T0: c.T0, Events: true})
			rep.Mismatches = append(rep.Mismatches, Mismatch{Case: c, Diffs: diffs, Trace: FormatEvents(tr.Events)})
		}
	}
	return rep
}

// closeTime compares two reception times: both never-informed, or equal
// within the schedule tolerance.
func closeTime(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= schedule.TimeTol
}

// closeRel compares two energies with a purely relative tolerance —
// costs live around 1e-16 J, so an absolute floor would pass anything.
// The executors sum identical float64 sequences, so in practice they
// agree bitwise.
func closeRel(a, b float64) bool {
	//tmedbvet:ignore floateq exact fast path (covers ±Inf and 0==0) before falling through to the relative-tolerance comparison below
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
