package core

import (
	"context"
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dts"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Greedy is the GREED baseline of §VII: at each step it selects, among
// all informed nodes and their candidate transmission times, the
// transmission that informs the largest number of still-uninformed nodes,
// paying the minimum cost in the relay's discrete cost set sufficient for
// that coverage. It finds local optima where EEDCB optimizes globally.
type Greedy struct {
	// Obs receives the "greed" phase span and the DTS metrics. Write-only;
	// nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (Greedy) Name() string { return "GREED" }

// Schedule implements Scheduler.
func (gr Greedy) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return gr.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through the DTS build and per greedy round.
func (gr Greedy) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := gr.Obs.StartPhase("greed")
	defer sp.End()
	view := plannerView(g, false)
	return greedyBackbone(view, src, t0, deadline, 0, cancel.FromContext(ctx), sp.Recorder())
}

// greedyBackbone runs the coverage-greedy selection on the given view,
// polling tok once per selection round (nil = uncancellable). workers
// bounds the DTS filter pool, and the DTS records into rec, the calling
// planner's phase scope.
func greedyBackbone(view *tveg.Graph, src tvg.NodeID, t0, deadline float64, workers int, tok *cancel.Token, rec *obs.Recorder) (schedule.Schedule, error) {
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{Workers: workers, Obs: rec, Cancel: tok})
	if err != nil {
		return nil, fmt.Errorf("core: GREED: %w", err)
	}
	inf := newInformedSet(view.N(), src, t0)
	var s schedule.Schedule
	for !inf.allInformed() {
		if err := tok.Check(); err != nil {
			return nil, fmt.Errorf("core: GREED: %w", err)
		}
		var best *candidate
		for i := 0; i < view.N(); i++ {
			ni := tvg.NodeID(i)
			if !inf.informed(ni) {
				continue
			}
			for _, t := range transmissionTimes(view, d.Points, ni, inf.time(ni), deadline) {
				if c := bestLevelCandidate(view, inf, ni, t); c != nil && c.betterThan(best) {
					best = c
				}
			}
		}
		if best == nil {
			break // no transmission can inform anyone new
		}
		s = append(s, schedule.Transmission{Relay: best.relay, T: best.t, W: best.w})
		for _, j := range best.newNodes {
			inf.mark(j, best.t+view.Tau())
		}
	}
	s = causalSort(view, s, src, t0)
	if un := inf.uncovered(); len(un) > 0 {
		return s, &IncompleteError{Uncovered: un}
	}
	return s, nil
}
