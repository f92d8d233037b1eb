package core

import (
	"context"
	"fmt"

	"repro/internal/cancel"
	"repro/internal/dts"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Random is the RAND baseline of §VII: at each step it picks a random
// informed node as relay (among those that can still inform someone new),
// transmitting at the earliest time it has an uninformed neighbor with
// the minimum cost level of its discrete cost set that reaches at least
// one uninformed node.
type Random struct {
	// Seed drives relay selection; runs are deterministic per seed.
	Seed int64
	// Obs receives the "rand" phase span and the DTS metrics. Write-only;
	// nil records nothing.
	Obs *obs.Recorder
}

// Name implements Scheduler.
func (Random) Name() string { return "RAND" }

// Schedule implements Scheduler.
func (r Random) Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	return r.ScheduleCtx(context.Background(), g, src, t0, deadline)
}

// ScheduleCtx implements Scheduler: Schedule with cancellation
// checkpoints through the DTS build and per selection round.
func (r Random) ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	sp := r.Obs.StartPhase("rand")
	defer sp.End()
	view := plannerView(g, false)
	return randomBackbone(view, src, t0, deadline, r.Seed, 0, cancel.FromContext(ctx), sp.Recorder())
}

// randomBackbone runs the random-relay selection on the given view,
// polling tok once per selection round (nil = uncancellable). workers
// bounds the DTS filter pool, and the DTS records into rec, the calling
// planner's phase scope.
func randomBackbone(view *tveg.Graph, src tvg.NodeID, t0, deadline float64, seed int64, workers int, tok *cancel.Token, rec *obs.Recorder) (schedule.Schedule, error) {
	rnd := rng.New(seed)
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{Workers: workers, Obs: rec, Cancel: tok})
	if err != nil {
		return nil, fmt.Errorf("core: RAND: %w", err)
	}
	inf := newInformedSet(view.N(), src, t0)
	var s schedule.Schedule
	for !inf.allInformed() {
		if err := tok.Check(); err != nil {
			return nil, fmt.Errorf("core: RAND: %w", err)
		}
		// Collect informed nodes with any productive transmission and
		// their earliest such opportunity.
		var cands []*candidate
		for i := 0; i < view.N(); i++ {
			ni := tvg.NodeID(i)
			if !inf.informed(ni) {
				continue
			}
			for _, t := range transmissionTimes(view, d.Points, ni, inf.time(ni), deadline) {
				c := minimalNewCoverage(view, inf, ni, t)
				if c != nil {
					cands = append(cands, c)
					break // earliest productive time for this relay
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rnd.Intn(len(cands))]
		s = append(s, schedule.Transmission{Relay: pick.relay, T: pick.t, W: pick.w})
		for _, j := range pick.newNodes {
			inf.mark(j, pick.t+view.Tau())
		}
	}
	s = causalSort(view, s, src, t0)
	if un := inf.uncovered(); len(un) > 0 {
		return s, &IncompleteError{Uncovered: un}
	}
	return s, nil
}

// minimalNewCoverage returns the cheapest DCS level of (i, t) that
// informs at least one new node, or nil when none does. All informed
// nodes covered along the way ride along in newNodes (they are already
// informed, so newNodes holds only the uninformed ones).
func minimalNewCoverage(view *tveg.Graph, inf *informedSet, i tvg.NodeID, t float64) *candidate {
	levels := view.DCS(i, t)
	var news []tvg.NodeID
	for _, lvl := range levels {
		if !inf.informed(lvl.Node) {
			news = append(news, lvl.Node)
			return &candidate{relay: i, t: t, w: lvl.W, newNodes: news}
		}
	}
	return nil
}
