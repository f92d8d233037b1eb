package degrade

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// This file is the deterministic fault-injection harness of the
// cancellation seam (ISSUE 4 satellite a). Instead of racing wall-clock
// timers against planner speed, it counts checkpoints: a cancel.Trip
// attached to the context fires after exactly k observed checks, so
// "cancel at the k-th checkpoint" is reproducible. The sweep establishes
// three properties for every planner:
//
//  1. Invariance — a trip that never fires leaves the schedule
//     byte-identical to the untripped run.
//  2. Promptness — a trip that fires at checkpoint k aborts the solve
//     after at most k + 2·workers + slack further observations; the
//     overrun is bounded by the pool width, not the input size.
//  3. Typed errors — every injected abort surfaces as ErrBudgetExceeded
//     / ErrCancelled (wrapped), never as a zero-value schedule.

const sweepWorkers = 2

// plannerCase pairs a context-aware planner with a graph of its channel
// family. Worker pools are pinned to sweepWorkers everywhere so the
// promptness bound is independent of GOMAXPROCS.
type plannerCase struct {
	name string
	g    *tveg.Graph
	alg  core.Scheduler
}

func plannerCases() []plannerCase {
	static := testTrace(10, tveg.Static, 7)
	fading := testTrace(8, tveg.RayleighFading, 7)
	w := sweepWorkers
	return []plannerCase{
		{"EEDCB", static, core.EEDCB{Workers: w}},
		{"GREED", static, core.Greedy{}},
		{"RAND", static, core.Random{Seed: 3}},
		{"FR-EEDCB", fading, core.FREEDCB{Workers: w}},
		{"FR-GREED", fading, core.FRGreedy{Workers: w}},
		{"FR-RAND", fading, core.FRRandom{Seed: 3, Workers: w}},
	}
}

// sweepPoints picks the injection offsets: every boundary near the start
// (the phase hand-offs all planners share), then strided points through
// the body, then the last few checkpoints.
func sweepPoints(total int64) []int64 {
	pts := []int64{0, 1, 2, 3, 5, 8}
	for _, f := range []int64{4, 2} {
		pts = append(pts, total/f)
	}
	if total > 2 {
		pts = append(pts, total-2)
	}
	out := pts[:0]
	for _, k := range pts {
		if k >= 0 && k < total {
			out = append(out, k)
		}
	}
	return out
}

// checkGoroutines waits for transient pool workers to drain and fails if
// the goroutine count stays above the baseline.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestCheckpointSweepAllPlanners fires cancellation at every early phase
// boundary and strided interior checkpoints of all six planners.
func TestCheckpointSweepAllPlanners(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, c := range plannerCases() {
		t.Run(c.name, func(t *testing.T) {
			base, errBase := c.alg.ScheduleCtx(context.Background(), c.g, 0, 0, 1000)
			if usable(errBase) != nil {
				t.Fatalf("baseline: %v", errBase)
			}
			baseJSON := mustJSON(t, base)

			// Counting pass: a trip that never fires measures the solve's
			// checkpoint total and must not perturb the schedule.
			counter := cancel.NewTrip(-1)
			s, err := c.alg.ScheduleCtx(cancel.WithTrip(context.Background(), counter), c.g, 0, 0, 1000)
			if (errBase == nil) != (err == nil) {
				t.Fatalf("counting trip changed the error: base=%v counted=%v", errBase, err)
			}
			if got := mustJSON(t, s); got != baseJSON {
				t.Fatalf("counting trip changed the schedule:\nbase %s\ngot  %s", baseJSON, got)
			}
			total := counter.Checks()
			if total == 0 {
				t.Fatalf("planner ran zero checkpoints; the cancellation seam is not wired in")
			}

			for _, k := range sweepPoints(total) {
				tr := cancel.NewTrip(k)
				s, err := c.alg.ScheduleCtx(cancel.WithTrip(context.Background(), tr), c.g, 0, 0, 1000)
				if !cancel.Is(err) {
					t.Errorf("k=%d/%d: err = %v, want a typed cancellation error", k, total, err)
					continue
				}
				if len(s) != 0 {
					t.Errorf("k=%d/%d: cancelled solve returned a %d-tx schedule", k, total, len(s))
				}
				// Promptness: after the trip fires, each live pool worker
				// may observe one more checkpoint before it parks, and the
				// unwinding phases re-poll a bounded number of times.
				if got, bound := tr.Checks(), k+2*sweepWorkers+16; got > bound {
					t.Errorf("k=%d/%d: %d checkpoints observed, want <= %d (unbounded overrun)",
						k, total, got, bound)
				}
			}

			// A trip budget at least as large as the full solve must not
			// fire at all.
			tr := cancel.NewTrip(total)
			s, err = c.alg.ScheduleCtx(cancel.WithTrip(context.Background(), tr), c.g, 0, 0, 1000)
			if (errBase == nil) != (err == nil) {
				t.Fatalf("k=total: error mismatch: base=%v got=%v", errBase, err)
			}
			if got := mustJSON(t, s); got != baseJSON {
				t.Fatalf("k=total: schedule differs from baseline")
			}
		})
	}
	checkGoroutines(t, before)
}

// TestCheckpointSweepMulticast extends the sweep to the multicast entry
// points, which take a different path through the Steiner solver.
func TestCheckpointSweepMulticast(t *testing.T) {
	g := testTrace(10, tveg.Static, 7)
	targets := []tvg.NodeID{3, 5, 9}
	alg := core.EEDCB{Workers: sweepWorkers}
	base, errBase := alg.MulticastCtx(context.Background(), g, 0, targets, 0, 1000)
	if usable(errBase) != nil {
		t.Fatalf("baseline: %v", errBase)
	}
	counter := cancel.NewTrip(-1)
	s, err := alg.MulticastCtx(cancel.WithTrip(context.Background(), counter), g, 0, targets, 0, 1000)
	if (errBase == nil) != (err == nil) || mustJSON(t, s) != mustJSON(t, base) {
		t.Fatalf("counting trip perturbed multicast: err=%v", err)
	}
	total := counter.Checks()
	for _, k := range sweepPoints(total) {
		tr := cancel.NewTrip(k)
		s, err := alg.MulticastCtx(cancel.WithTrip(context.Background(), tr), g, 0, targets, 0, 1000)
		if !cancel.Is(err) {
			t.Errorf("k=%d/%d: err = %v, want cancellation", k, total, err)
		}
		if len(s) != 0 {
			t.Errorf("k=%d/%d: cancelled multicast returned a schedule", k, total)
		}
	}
}

// freshTrace returns a new graph of the same trace on every call. The
// DTS and auxiliary-graph memos key on graph identity, so a run on a
// graph solved before would find those artifacts built and observe
// fewer checkpoints; the ladder sweeps below need every run to start
// cold.
func freshTrace() *tveg.Graph { return testTrace(10, tveg.Static, 7) }

// TestLadderInjectionEveryBoundary sweeps the orchestrator itself: the
// first rung is cancelled at each of its early checkpoints and the
// ladder must still deliver a usable, deterministic fallback schedule.
func TestLadderInjectionEveryBoundary(t *testing.T) {
	before := runtime.NumGoroutine()

	// Reference: rung full injected away at checkpoint 0 → spt answers.
	ref, out, err := Solve(context.Background(), freshTrace(), 0, 0, 1000, Options{
		Budget: time.Hour, Workers: sweepWorkers, Inject: tripRungs(RungFull),
	})
	if usable(err) != nil {
		t.Fatal(err)
	}
	if out.Rung != RungSPT {
		t.Fatalf("rung %v, want spt", out.Rung)
	}
	refJSON := mustJSON(t, ref)

	// The fallback schedule must not depend on *where* inside the first
	// rung the budget ran out: cancelled work is discarded wholesale.
	for _, k := range []int64{0, 1, 2, 5, 17, 64} {
		inject := func(r Rung, ctx context.Context) context.Context {
			if r == RungFull {
				return cancel.WithTrip(ctx, cancel.NewTrip(k))
			}
			return ctx
		}
		s, out, err := Solve(context.Background(), freshTrace(), 0, 0, 1000, Options{
			Budget: time.Hour, Workers: sweepWorkers, Inject: inject,
		})
		if usable(err) != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if out.Rung != RungSPT {
			t.Fatalf("k=%d: rung %v, want spt", k, out.Rung)
		}
		if got := mustJSON(t, s); got != refJSON {
			t.Errorf("k=%d: fallback schedule depends on the injection point:\nref %s\ngot %s",
				k, refJSON, got)
		}
	}
	checkGoroutines(t, before)
}

// TestLadderParentTripHardStop sweeps a trip on the caller's own
// context: wherever it fires — inside the shared DTS build or inside a
// rung — the orchestrator must return the typed error promptly instead
// of walking the remaining rungs with a dead context.
func TestLadderParentTripHardStop(t *testing.T) {
	opts := Options{Budget: time.Hour, Workers: sweepWorkers}

	counter := cancel.NewTrip(-1)
	s, out, err := Solve(cancel.WithTrip(context.Background(), counter), freshTrace(), 0, 0, 1000, opts)
	if usable(err) != nil {
		t.Fatal(err)
	}
	if out == nil || len(s) == 0 {
		t.Fatal("counting run produced no schedule")
	}
	total := counter.Checks()

	for _, k := range sweepPoints(total) {
		tr := cancel.NewTrip(k)
		s, out, err := Solve(cancel.WithTrip(context.Background(), tr), freshTrace(), 0, 0, 1000, opts)
		if s != nil || out != nil {
			t.Fatalf("k=%d/%d: hard-stopped solve returned a result (rung %v)", k, total, out.Rung)
		}
		if !cancel.Is(err) {
			t.Fatalf("k=%d/%d: err = %v, want a typed cancellation error", k, total, err)
		}
		if got, bound := tr.Checks(), k+2*sweepWorkers+16; got > bound {
			t.Errorf("k=%d/%d: %d checkpoints after the trip, want <= %d", k, total, got, bound)
		}
	}
}
