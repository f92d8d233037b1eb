// Package degrade is the budget-aware solve orchestrator: it plans a
// broadcast under a total wall-clock budget by walking a deterministic
// ladder of progressively cheaper planners, falling to the next rung
// whenever the current one exhausts its share of the budget.
//
// Every rung plans on the model-true view — the fading-aware planner
// family on fading graphs, the static family on static graphs — so a
// fallback schedule degrades in energy quality, never in feasibility:
// whatever rung answers, the schedule still satisfies the delay bound T
// and the residual-failure bound ε for the nodes it covers. The ladder
// trades the Steiner approximation guarantee (full recursive greedy →
// shortest-path tree → coverage greedy → random relays) for planning
// time, mirroring the EEDCB → GREED → RAND quality ordering of §VII.
//
// Budget policy: the discrete time set (the cheapest artifact, needed by
// every rung) is built once up front under the caller's context, through
// the process-wide DTS memo, so every rung finds it there (the DTS
// depends only on the presence structure, never on the channel model).
// Rungs share further artifacts the same way: the SPT rung reuses an
// auxiliary-graph core that a cancelled full rung had already finished,
// while a stage cancelled mid-build stores nothing. Each non-final rung
// then receives half of the remaining budget; the final rung runs under
// the caller's context alone, so the orchestrator always produces an
// answer unless the caller's own context dies (the hard stop).
package degrade

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/dts"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Rung is one level of the degradation ladder, ordered from highest
// solution quality (slowest) to lowest (fastest).
type Rung int

const (
	// RungFull is the paper's primary planner at the configured Steiner
	// level: FR-EEDCB on fading graphs, EEDCB on static ones.
	RungFull Rung = iota
	// RungSPT is the same pipeline with the level-1 shortest-path-tree
	// Steiner heuristic — one Dijkstra per terminal instead of the
	// recursive greedy density scan.
	RungSPT
	// RungGreed is the coverage-greedy backbone (GREED / FR-GREED).
	RungGreed
	// RungRand is the random-relay backbone (RAND / FR-RAND), the
	// cheapest planner in the suite.
	RungRand

	numRungs = int(RungRand) + 1
)

// String returns the rung's stable display name (used in schedule meta
// blocks and flag values).
func (r Rung) String() string {
	switch r {
	case RungFull:
		return "full"
	case RungSPT:
		return "spt"
	case RungGreed:
		return "greed"
	case RungRand:
		return "rand"
	default:
		return fmt.Sprintf("rung(%d)", int(r))
	}
}

// ParseRung parses a rung display name ("full", "spt", "greed", "rand").
func ParseRung(s string) (Rung, error) {
	for r := Rung(0); int(r) < numRungs; r++ {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("degrade: unknown rung %q (want full|spt|greed|rand)", s)
}

// DefaultLadder returns the standard quality-ordered ladder.
func DefaultLadder() []Rung { return []Rung{RungFull, RungSPT, RungGreed, RungRand} }

// ShedTo trims a ladder for load shedding: it returns the suffix
// starting at the first rung whose quality is at or below r (rungs are
// ordered best-first, so shedding drops the expensive prefix). When
// every rung in the ladder is better than r, the last rung — the rung of
// last resort — survives, so a shed request still gets an answer. This
// is the admission-control seam of the solve daemon: an overloaded queue
// lowers the starting rung of waiting requests instead of rejecting
// them, trading energy quality (never T/ε-feasibility) for latency.
func ShedTo(ladder []Rung, r Rung) []Rung {
	if len(ladder) == 0 {
		return nil
	}
	for i, rung := range ladder {
		if rung >= r {
			return ladder[i:]
		}
	}
	return ladder[len(ladder)-1:]
}

// ParseLadder parses a comma-separated rung list (e.g. "full,greed,rand").
// An empty string yields the default ladder.
func ParseLadder(s string) ([]Rung, error) {
	if s == "" {
		return DefaultLadder(), nil
	}
	var out []Rung
	for _, part := range strings.Split(s, ",") {
		r, err := ParseRung(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Options tunes the orchestrator.
type Options struct {
	// Budget is the total wall-clock solve budget. Zero or negative
	// means no budget: only the first ladder rung runs, under the
	// caller's context alone.
	Budget time.Duration
	// Ladder is the rung sequence to walk (nil = DefaultLadder). The
	// final entry is the rung of last resort and runs without a
	// per-rung budget.
	Ladder []Rung
	// Level is the Steiner level of RungFull (0 = the planner default).
	Level int
	// Workers bounds the planners' internal worker pools.
	Workers int
	// Seed drives RungRand relay selection.
	Seed int64
	// Clock supplies wall-clock time for budget arithmetic (nil =
	// time.Now). Injectable so tests drive the ladder deterministically.
	Clock func() time.Time
	// Inject, when non-nil, wraps each rung's context before planning —
	// the fault-injection seam used by the test harness to trip
	// cancellation at exact checkpoint counts. Production runs leave it
	// nil.
	Inject func(Rung, context.Context) context.Context
	// Obs receives the "degrade" span, per-rung child spans, and the
	// budget/cancellation/transition counters. Nil records nothing.
	Obs *obs.Recorder
}

func (o Options) clock() func() time.Time {
	if o.Clock == nil {
		//tmedbvet:ignore nondeterm injectable-clock default: budgets are wall-clock by definition and tests override via Options.Clock
		return time.Now
	}
	return o.Clock
}

// Attempt records one abandoned ladder rung.
type Attempt struct {
	Rung      Rung
	Algorithm string
	Err       string
}

// Outcome reports how the orchestrator produced its schedule.
type Outcome struct {
	// Rung is the ladder rung that produced the schedule.
	Rung Rung
	// Algorithm is the winning planner's display name.
	Algorithm string
	// Reason explains why earlier rungs were abandoned; empty when the
	// first rung succeeded.
	Reason string
	// Attempts lists the abandoned rungs in order.
	Attempts []Attempt
	// Budget echoes the configured total budget.
	Budget time.Duration
}

// Annotate stamps the outcome into a schedule meta block.
func (o *Outcome) Annotate(m *schedule.Meta) {
	if o == nil || m == nil {
		return
	}
	m.Algorithm = o.Algorithm
	m.DegradeRung = o.Rung.String()
	m.DegradeReason = o.Reason
}

// rungAlg names each rung's planner on a static graph (core.Names); a
// fading graph runs the "FR-" variant of the same name.
var rungAlg = [numRungs]string{RungFull: "EEDCB", RungSPT: "EEDCB", RungGreed: "GREED", RungRand: "RAND"}

// RungFor returns the best rung a request for the named planner may run
// at, matched without regard to case or the "FR-" prefix: a GREED or
// RAND request is never upgraded to a Steiner solve, and any other name
// starts at RungFull.
func RungFor(alg string) Rung {
	base := strings.TrimPrefix(strings.ToUpper(alg), "FR-")
	for r, name := range rungAlg {
		if name == base {
			return Rung(r)
		}
	}
	return RungFull
}

// planner materializes the rung's scheduler for the graph's channel
// model: fading graphs get the fading-resistant family so every rung's
// schedule satisfies the ε-bound, static graphs the static family. The
// SPT rung runs at Steiner level 1, and a rung outside the ladder runs
// RAND. The scheduler records into rec, the rung's phase scope.
func (o Options) planner(rung Rung, fading bool, rec *obs.Recorder) core.Scheduler {
	name, level := "RAND", o.Level
	if rung >= 0 && int(rung) < numRungs {
		name = rungAlg[rung]
	}
	if rung == RungSPT {
		level = 1
	}
	if fading {
		name = "FR-" + name
	}
	alg, _ := core.New(name, level, o.Seed, o.Workers, rec) // every rungAlg name is in core.Names
	return alg
}

// Solve plans a broadcast from src over [t0, deadline] under the
// degradation ladder. The returned error follows the Scheduler
// convention: nil or *core.IncompleteError mean the schedule is usable;
// a cancel.ErrCancelled / cancel.ErrBudgetExceeded (wrapped) means the
// caller's own context died before any rung could answer. The Outcome is
// non-nil whenever the schedule is usable.
func Solve(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64, opts Options) (schedule.Schedule, *Outcome, error) {
	sp := opts.Obs.StartPhase("degrade")
	defer sp.End()
	scope := sp.Recorder()
	lg := obs.LoggerFrom(ctx)
	ladder := opts.Ladder
	if len(ladder) == 0 {
		ladder = DefaultLadder()
	}
	if opts.Budget <= 0 {
		ladder = ladder[:1]
	}
	clock := opts.clock()
	start := clock()
	fading := g.Model.Fading()

	// Shared artifact: one DTS serves every rung (and both planner
	// views — WithModel shares the underlying presence graph), which
	// find it in the memo. Built under the caller's context: without it
	// no rung can answer, so it gets no smaller budget of its own.
	_, err := dts.Build(g.Graph, t0, deadline, dts.Options{
		Workers: opts.Workers, Obs: scope, Cancel: cancel.FromContext(ctx),
	})
	if err != nil {
		countCancel(opts.Obs, err)
		return nil, nil, fmt.Errorf("degrade: %w", err)
	}

	out := &Outcome{Budget: opts.Budget}
	var reasons []string
	for idx, rung := range ladder {
		last := idx == len(ladder)-1
		rungCtx := ctx
		cancelFn := context.CancelFunc(func() {})
		if !last {
			remaining := opts.Budget - clock().Sub(start)
			if remaining <= 0 {
				opts.Obs.Counter("degrade.rung_transitions").Inc()
				if lg.Enabled() {
					lg.Event("degrade.rung_skipped", obs.Str("rung", rung.String()))
				}
				out.Attempts = append(out.Attempts, Attempt{Rung: rung, Algorithm: "", Err: "budget exhausted before start"})
				reasons = append(reasons, fmt.Sprintf("%s: budget exhausted before start", rung))
				continue
			}
			// Half of what is left: geometric shares guarantee every
			// later rung headroom while giving the best rung the most.
			rungCtx, cancelFn = context.WithTimeout(ctx, remaining/2)
		}
		if opts.Inject != nil {
			rungCtx = opts.Inject(rung, rungCtx)
		}
		rs := scope.StartPhase("degrade.rung")
		alg := opts.planner(rung, fading, rs.Recorder())
		rs.SetStr("rung", rung.String())
		rs.SetStr("algorithm", alg.Name())
		s, err := alg.ScheduleCtx(rungCtx, g, src, t0, deadline)
		rs.End()
		cancelFn()
		var ie *core.IncompleteError
		if err == nil || errors.As(err, &ie) {
			out.Rung = rung
			out.Algorithm = alg.Name()
			out.Reason = strings.Join(reasons, "; ")
			sp.SetStr("rung", rung.String())
			if lg.Enabled() {
				lg.Event("degrade.rung_answered",
					obs.Str("rung", rung.String()),
					obs.Str("algorithm", alg.Name()),
					obs.I("attempts", len(out.Attempts)))
			}
			return s, out, err
		}
		if !cancel.Is(err) {
			// A genuine planning failure is not recoverable by spending
			// less effort; surface it.
			return nil, nil, err
		}
		countCancel(opts.Obs, err)
		if ctxErr := cancel.FromContext(ctx).Check(); ctxErr != nil {
			// The caller's own context died — the hard stop. Don't
			// burn the remaining rungs.
			return nil, nil, fmt.Errorf("degrade: %w", ctxErr)
		}
		opts.Obs.Counter("degrade.rung_transitions").Inc()
		if lg.Enabled() {
			lg.Event("degrade.rung_abandoned",
				obs.Str("rung", rung.String()),
				obs.Str("algorithm", alg.Name()),
				obs.Str("cause", err.Error()))
		}
		out.Attempts = append(out.Attempts, Attempt{Rung: rung, Algorithm: alg.Name(), Err: err.Error()})
		reasons = append(reasons, fmt.Sprintf("%s: %v", rung, err))
	}
	// Only reachable when the caller supplied a ladder and every rung —
	// including the unbudgeted last one — was cancelled by the caller's
	// context, or when Budget <= 0 truncated the ladder to a cancelled
	// first rung.
	return nil, nil, fmt.Errorf("degrade: all %d rung(s) cancelled: %s", len(ladder), strings.Join(reasons, "; "))
}

func countCancel(rec *obs.Recorder, err error) {
	switch {
	case errors.Is(err, cancel.ErrBudgetExceeded):
		rec.Counter("degrade.budget_exceeded").Inc()
	case errors.Is(err, cancel.ErrCancelled):
		rec.Counter("degrade.cancelled").Inc()
	}
}
