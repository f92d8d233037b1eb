package tmedb

// Deadline-bounded solving: context cancellation through every planner
// and the budget-aware degradation ladder of internal/degrade.

import (
	"context"

	"repro/internal/cancel"
	"repro/internal/degrade"
)

// Typed cancellation errors. Every planner's ScheduleCtx (and
// SolveWithLadder) returns one of these — wrapped, so match with
// errors.Is — when its context is cancelled or its deadline expires.
var (
	// ErrCancelled reports an explicit context cancellation.
	ErrCancelled = cancel.ErrCancelled
	// ErrBudgetExceeded reports an expired context deadline / solve
	// budget.
	ErrBudgetExceeded = cancel.ErrBudgetExceeded
)

// The degradation ladder.
type (
	// DegradeOptions tunes the budget-aware degradation ladder.
	DegradeOptions = degrade.Options
	// DegradeOutcome reports which ladder rung produced a schedule and
	// why earlier rungs were abandoned.
	DegradeOutcome = degrade.Outcome
	// DegradeRung is one level of the degradation ladder.
	DegradeRung = degrade.Rung
)

// Degradation-ladder rungs, ordered from highest solution quality to
// fastest fallback.
const (
	// RungFull is the paper's primary planner (FR-EEDCB / EEDCB).
	RungFull = degrade.RungFull
	// RungSPT is the level-1 shortest-path-tree variant.
	RungSPT = degrade.RungSPT
	// RungGreed is the coverage-greedy backbone (GREED / FR-GREED).
	RungGreed = degrade.RungGreed
	// RungRand is the random-relay backbone (RAND / FR-RAND).
	RungRand = degrade.RungRand
)

// DefaultLadder returns the standard quality-ordered rung sequence.
func DefaultLadder() []DegradeRung { return degrade.DefaultLadder() }

// ParseLadder parses a comma-separated rung list ("full,greed,rand");
// the empty string yields the default ladder.
func ParseLadder(s string) ([]DegradeRung, error) { return degrade.ParseLadder(s) }

// ScheduleWithContext plans under ctx: it is s.ScheduleCtx. With a
// background context the planner takes the exact pre-cancellation code
// path, so completed solves are byte-identical to Schedule.
func ScheduleWithContext(ctx context.Context, s Scheduler, g *Graph, src NodeID, t0, deadline float64) (Schedule, error) {
	return s.ScheduleCtx(ctx, g, src, t0, deadline)
}

// SolveWithLadder plans a broadcast under a total wall-clock budget,
// walking the degradation ladder (FR-EEDCB/EEDCB → SPT → GREED → RAND)
// and falling to the next rung whenever the current one exhausts its
// share. Every rung plans on the model-true view, so fallback schedules
// stay T- and ε-feasible; only energy quality degrades. The Outcome
// records the winning rung and can annotate a schedule meta block.
func SolveWithLadder(ctx context.Context, g *Graph, src NodeID, t0, deadline float64, opts DegradeOptions) (Schedule, *DegradeOutcome, error) {
	return degrade.Solve(ctx, g, src, t0, deadline, opts)
}
