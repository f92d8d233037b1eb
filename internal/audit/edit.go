package audit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"

	"repro/internal/core"
	"repro/internal/haggle"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// This file is the edit-sequence differential harness: seeded random
// edit sequences applied to one long-lived graph (whose solves ride the
// version-keyed memos and the cost-set timelines that each edit drops
// only at its pair's two endpoints) are checked after every step
// against a cold Build+solve on a fresh replay of the edited trace. The invariant is byte-identity — the incremental solve
// must return the exact schedule the cold solve returns, agree on the
// error taxonomy, and behave identically under the reference executor.

// EditKind enumerates the TVEG edit operations.
type EditKind int

const (
	OpAddContact EditKind = iota
	OpRemoveContact
	OpRetimeChannel
)

func (k EditKind) String() string {
	switch k {
	case OpAddContact:
		return "add"
	case OpRemoveContact:
		return "remove"
	case OpRetimeChannel:
		return "retime"
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// EditOp is one replayable mutation of a TVEG.
type EditOp struct {
	Kind EditKind
	I, J tvg.NodeID
	Iv   interval.Interval // contact window (add/remove), retime source
	To   interval.Interval // retime target
	Dist float64           // add only
}

// Apply runs the op against g. It reports whether the graph changed
// (no-op removals and identity retimes leave the version untouched) and
// the edit error, if any. Applying the same op to two graphs in the
// same state yields the same outcome — the replay the cold side of the
// differential depends on.
func (op EditOp) Apply(g *tveg.Graph) (bool, error) {
	switch op.Kind {
	case OpAddContact:
		g.AddContact(op.I, op.J, op.Iv, op.Dist)
		return true, nil
	case OpRemoveContact:
		return g.RemoveContact(op.I, op.J, op.Iv), nil
	case OpRetimeChannel:
		return g.RetimeChannel(op.I, op.J, op.Iv, op.To)
	}
	panic(fmt.Sprintf("audit: unknown edit kind %d", int(op.Kind)))
}

func (op EditOp) String() string {
	switch op.Kind {
	case OpRetimeChannel:
		return fmt.Sprintf("retime(%d,%d %v->%v)", op.I, op.J, op.Iv, op.To)
	case OpRemoveContact:
		return fmt.Sprintf("remove(%d,%d %v)", op.I, op.J, op.Iv)
	}
	return fmt.Sprintf("add(%d,%d %v d=%.3g)", op.I, op.J, op.Iv, op.Dist)
}

// EditCase is one seeded edit-sequence differential instance. The seed
// determines everything: base trace (synthetic or Haggle-derived), edit
// mix, the ops themselves, and the solve parameters.
type EditCase struct {
	Seed     int64
	Mix      string // "add-heavy", "remove-heavy", "retime-heavy"
	Base     string // "synthetic" or "haggle"
	BaseSeed int64
	N        int
	Tau      float64
	Model    tveg.Model
	Ops      []EditOp
	Src      tvg.NodeID
	T0       float64
	Deadline float64
	Alg      core.Scheduler
}

func (c EditCase) String() string {
	return fmt.Sprintf("editcase{seed=%d mix=%s base=%s n=%d τ=%g model=%v alg=%s ops=%v src=v%d window=[%g,%g]}",
		c.Seed, c.Mix, c.Base, c.N, c.Tau, c.Model, c.Alg.Name(), c.Ops, c.Src, c.T0, c.Deadline)
}

// BaseGraph materializes the case's pre-edit graph, cost cache enabled
// (so the differential also covers the selective cache invalidation the
// edit path relies on). Calling it twice yields independent graphs with
// identical contacts.
func (c EditCase) BaseGraph() *tveg.Graph {
	rnd := rng.New(c.BaseSeed)
	if c.Base == "haggle" {
		tr := haggle.Generate(haggle.GenOptions{
			N: c.N, Horizon: 200, MeanInterContact: 60, ParetoAlpha: 1.5,
			MeanContact: 25, RampEnd: 40, KeepEarly: 0.3, DistMin: 5, DistMax: 12,
		}, rnd)
		return tr.ToTVEG(c.Tau, tveg.DefaultParams(), c.Model)
	}
	return randomTVEG(rnd, c.N, c.Tau, c.Model)
}

// GraphAt replays the first k ops onto a fresh base graph: the cold
// "edited trace" the incremental solve must match byte-for-byte. Edit
// errors during replay are deterministic reruns of errors the
// incremental side already saw, so they are discarded here.
func (c EditCase) GraphAt(k int) *tveg.Graph {
	g := c.BaseGraph()
	for _, op := range c.Ops[:k] {
		op.Apply(g)
	}
	return g
}

var editMixes = [...]string{"add-heavy", "remove-heavy", "retime-heavy"}

// GenerateEditCase derives a full edit-sequence case from a seed. The
// mix cycles with the seed so any contiguous seed range covers all
// three; ops are drawn against a working replay so removals and retimes
// can aim at contacts that actually exist at that point (while a slice
// of every mix still produces no-op removals, identity retimes, and
// adds outside the solve window).
func GenerateEditCase(seed int64) EditCase {
	rnd := rng.New(seed)
	c := EditCase{
		Seed:     seed,
		Mix:      editMixes[((seed%3)+3)%3],
		BaseSeed: rnd.Int63(),
		N:        5 + rnd.Intn(6),
		Tau:      []float64{0, 0.5, 7}[rnd.Intn(3)],
		Base:     "synthetic",
		Model:    tveg.Static,
	}
	if rnd.Intn(3) == 0 {
		c.Base = "haggle"
	}
	if rnd.Intn(3) == 0 {
		c.Model = tveg.RayleighFading
	}
	if c.Model.Fading() {
		c.Alg = []core.Scheduler{core.FREEDCB{Level: 1}, core.FRGreedy{}}[rnd.Intn(2)]
	} else {
		c.Alg = []core.Scheduler{core.EEDCB{Level: 1}, core.EEDCB{Level: 2}, core.Greedy{}}[rnd.Intn(3)]
	}
	c.Src = tvg.NodeID(rnd.Intn(c.N))
	c.T0 = 20 * rnd.Float64()
	c.Deadline = c.T0 + 60 + 100*rnd.Float64()

	g := c.BaseGraph()
	nops := 3 + rnd.Intn(4)
	for len(c.Ops) < nops {
		op := drawEditOp(rnd, g, c.Mix)
		op.Apply(g)
		c.Ops = append(c.Ops, op)
	}
	return c
}

// contactRow is one (pair, segment) of a graph, the unit removals and
// retimes aim at.
type contactRow struct {
	i, j tvg.NodeID
	seg  tveg.Segment
}

func contactRows(g *tveg.Graph) []contactRow {
	var rows []contactRow
	n := g.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, s := range g.Segments(tvg.NodeID(i), tvg.NodeID(j)) {
				rows = append(rows, contactRow{tvg.NodeID(i), tvg.NodeID(j), s})
			}
		}
	}
	return rows
}

// drawEditOp draws one edit following the mix's kind weights.
func drawEditOp(rng *rand.Rand, g *tveg.Graph, mix string) EditOp {
	var pAdd, pRemove float64
	switch mix {
	case "add-heavy":
		pAdd, pRemove = 0.6, 0.2
	case "remove-heavy":
		pAdd, pRemove = 0.2, 0.6
	default: // retime-heavy
		pAdd, pRemove = 0.25, 0.25
	}
	kind := OpRetimeChannel
	switch pick := rng.Float64(); {
	case pick < pAdd:
		kind = OpAddContact
	case pick < pAdd+pRemove:
		kind = OpRemoveContact
	}

	n := g.N()
	randPair := func() (tvg.NodeID, tvg.NodeID) {
		i := tvg.NodeID(rng.Intn(n))
		j := tvg.NodeID((int(i) + 1 + rng.Intn(n-1)) % n)
		return i, j
	}
	window := func() interval.Interval {
		// Starts range past 170 so some contacts land entirely outside
		// every solve window the generator can draw.
		start := 185 * rng.Float64()
		return interval.Interval{Start: start, End: start + 10 + 30*rng.Float64()}
	}
	rows := contactRows(g)
	switch {
	case kind == OpRemoveContact && len(rows) > 0 && rng.Float64() < 0.7:
		// Aimed removal: the exact contact, a strict sub-window, or a
		// superset spilling over both ends.
		row := rows[rng.Intn(len(rows))]
		iv := row.seg.Iv
		switch rng.Intn(3) {
		case 0: // exact
		case 1: // interior slice
			w := iv.End - iv.Start
			iv = interval.Interval{Start: iv.Start + 0.2*w, End: iv.End - 0.2*w}
		case 2: // superset
			iv = interval.Interval{Start: iv.Start - 5, End: iv.End + 5}
		}
		return EditOp{Kind: OpRemoveContact, I: row.i, J: row.j, Iv: iv}
	case kind == OpRemoveContact:
		// Blind removal: frequently a no-op on an absent contact.
		i, j := randPair()
		return EditOp{Kind: OpRemoveContact, I: i, J: j, Iv: window()}
	case kind == OpRetimeChannel && len(rows) > 0:
		row := rows[rng.Intn(len(rows))]
		from := row.seg.Iv
		to := from // identity retime: a no-op that must not bump anything
		if rng.Float64() < 0.9 {
			start := 185 * rng.Float64()
			to = interval.Interval{Start: start, End: start + (from.End - from.Start)}
		}
		return EditOp{Kind: OpRetimeChannel, I: row.i, J: row.j, Iv: from, To: to}
	default:
		i, j := randPair()
		return EditOp{Kind: OpAddContact, I: i, J: j, Iv: window(), Dist: 5 + 10*rng.Float64()}
	}
}

// CompareEditCase replays the case's edit sequence on one long-lived
// graph — memoized solves, cost-set timelines kept across edits —
// against a fresh cold rebuild of the edited trace after every step,
// and returns one line per disagreement (nil when incremental ≡ cold
// throughout).
func CompareEditCase(c EditCase) []string {
	var diffs []string
	report := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}

	inc := c.BaseGraph()
	// The pre-edit solve seeds the memos and fills the timelines, so
	// every edited version's solve answers the unedited nodes' cost
	// sets from pieces filled before the edit.
	sPrev, _ := c.Alg.Schedule(inc, c.Src, c.T0, c.Deadline)
	for k, op := range c.Ops {
		changed, editErr := op.Apply(inc)
		cold := c.GraphAt(k + 1)
		if coldChanged, coldErr := replayLastOp(c, k); coldChanged != changed || !sameError(coldErr, editErr) {
			report("step %d %v: edit outcome diverges on replay: incremental (%v, %q), cold (%v, %q)",
				k, op, changed, errString(editErr), coldChanged, errString(coldErr))
		}

		sInc, errInc := c.Alg.Schedule(inc, c.Src, c.T0, c.Deadline)
		sCold, errCold := c.Alg.Schedule(cold, c.Src, c.T0, c.Deadline)
		if !sameSolveError(errInc, errCold) {
			report("step %d %v: incremental solve error %q, cold solve error %q",
				k, op, errString(errInc), errString(errCold))
		}
		if !reflect.DeepEqual(sInc, sCold) {
			report("step %d %v: incremental schedule diverges from cold solve\n  incremental: %v\n  cold:        %v",
				k, op, sInc, sCold)
		}
		if !changed && editErr == nil && !reflect.DeepEqual(sInc, sPrev) {
			report("step %d %v: no-op edit changed the schedule\n  before: %v\n  after:  %v", k, op, sPrev, sInc)
		}

		// Reference-executor cross-check: the incremental schedule must
		// behave identically on the incremental graph and the cold replay
		// — same receptions, same firings, same consumed energy.
		trInc := Execute(inc, sInc, c.Src, Options{T0: c.T0})
		trCold := Execute(cold, sInc, c.Src, Options{T0: c.T0})
		if d := traceDiff(trInc, trCold); d != "" {
			report("step %d %v: reference execution diverges between incremental and cold graph: %s", k, op, d)
		}
		sPrev = sInc
	}

	// Full executor sweep (sim, des, feasibility) on the final edited
	// trace, with the schedule the incremental path produced.
	final := c.GraphAt(len(c.Ops))
	diffs = append(diffs, CompareSchedule(final, sPrev, c.Src, c.T0, c.Deadline, math.Inf(1))...)
	return diffs
}

// replayLastOp applies ops[:k] to a fresh base and then reports op[k]'s
// outcome on that cold state.
func replayLastOp(c EditCase, k int) (bool, error) {
	return c.Ops[k].Apply(c.GraphAt(k))
}

// sameSolveError compares planner error taxonomy: both nil, both the
// same IncompleteError (identical uncovered sets), or identical
// messages.
func sameSolveError(a, b error) bool {
	var ia, ib *core.IncompleteError
	aInc := errors.As(a, &ia)
	bInc := errors.As(b, &ib)
	if aInc || bInc {
		return aInc && bInc && reflect.DeepEqual(ia.Uncovered, ib.Uncovered)
	}
	return sameError(a, b)
}

func sameError(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// traceDiff compares two reference-executor traces exactly; both sides
// sum identical float64 sequences, so even the energies match bitwise.
func traceDiff(a, b *Trace) string {
	if a.Delivered != b.Delivered {
		return fmt.Sprintf("delivered %d vs %d", a.Delivered, b.Delivered)
	}
	if !reflect.DeepEqual(a.RecvAt, b.RecvAt) {
		return fmt.Sprintf("receptions %v vs %v", a.RecvAt, b.RecvAt)
	}
	if !reflect.DeepEqual(a.Fired, b.Fired) {
		return fmt.Sprintf("firings %v vs %v", a.Fired, b.Fired)
	}
	//tmedbvet:ignore floateq both executions sum the same float64 sequence; any drift is a real divergence
	if a.ConsumedEnergy != b.ConsumedEnergy {
		return fmt.Sprintf("consumed energy %g vs %g", a.ConsumedEnergy, b.ConsumedEnergy)
	}
	return ""
}

// EditMismatch is one failed edit-sequence case.
type EditMismatch struct {
	Case  EditCase
	Diffs []string
}

func (m EditMismatch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\n", m.Case)
	for _, d := range m.Diffs {
		fmt.Fprintf(&b, "  MISMATCH: %s\n", d)
	}
	return b.String()
}

// EditReport summarizes an edit-differential run.
type EditReport struct {
	Cases      int
	ByMix      map[string]int
	ByBase     map[string]int
	Mismatches []EditMismatch
}

// Ok reports a clean run.
func (r EditReport) Ok() bool { return len(r.Mismatches) == 0 }

func (r EditReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d edit cases, %d mismatches\n", r.Cases, len(r.Mismatches))
	for _, mix := range sortedKeys(r.ByMix) {
		fmt.Fprintf(&b, "  %-12s %d\n", mix, r.ByMix[mix])
	}
	for _, base := range sortedKeys(r.ByBase) {
		fmt.Fprintf(&b, "  %-12s %d\n", base, r.ByBase[base])
	}
	for _, m := range r.Mismatches {
		b.WriteString(m.String())
	}
	return b.String()
}

// RunEditDifferential generates and audits `cases` seeded edit
// sequences starting at baseSeed.
func RunEditDifferential(cases int, baseSeed int64) EditReport {
	rep := EditReport{ByMix: map[string]int{}, ByBase: map[string]int{}}
	for k := 0; k < cases; k++ {
		c := GenerateEditCase(baseSeed + int64(k))
		rep.Cases++
		rep.ByMix[c.Mix]++
		rep.ByBase[c.Base]++
		if diffs := CompareEditCase(c); len(diffs) > 0 {
			rep.Mismatches = append(rep.Mismatches, EditMismatch{Case: c, Diffs: diffs})
		}
	}
	return rep
}
