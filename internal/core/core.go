// Package core implements the paper's broadcast schedulers (§VI–§VII):
//
//   - EEDCB — the energy-efficient delay-constrained broadcast of §VI-A:
//     DTS → auxiliary graph → directed Steiner approximation.
//   - FR-EEDCB — the fading-resistant variant of §VI-B: EEDCB backbone
//     on fading-aware edge weights, then NLP energy allocation.
//   - GREED / FR-GREED — the coverage-greedy baselines of §VII.
//   - RAND / FR-RAND — the random-relay baselines of §VII.
//
// Every scheduler implements the Scheduler interface and is deterministic
// given its construction parameters (RAND takes an explicit seed).
package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Scheduler plans a broadcast relay schedule on a TVEG for a broadcast
// from src released at t0 that must finish by the absolute deadline.
type Scheduler interface {
	// Name returns the algorithm's display name as used in §VII.
	Name() string
	// Schedule plans the broadcast. When some nodes cannot possibly be
	// reached within the window, implementations return the best-effort
	// schedule covering the rest together with an *IncompleteError.
	Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error)
	// ScheduleCtx is Schedule under ctx: it polls cancellation
	// checkpoints at phase boundaries and inside every unbounded loop,
	// returning cancel.ErrCancelled / cancel.ErrBudgetExceeded (wrapped)
	// promptly when the context dies. The checkpoints never influence
	// planning decisions, so a completed ScheduleCtx is byte-identical
	// to Schedule, and context.Background() takes Schedule's own path.
	ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error)
}

// Names lists the six planners of §VII by display name, in the series
// order of Fig. 6: the static family, then its fading-resistant
// variants.
var Names = []string{"EEDCB", "GREED", "RAND", "FR-EEDCB", "FR-GREED", "FR-RAND"}

// New returns the planner whose Name is name, matched without regard to
// case. level is the Steiner level of (FR-)EEDCB, seed drives (FR-)RAND,
// workers bounds the pools of EEDCB and the FR- planners, and rec
// receives the phase tree.
func New(name string, level int, seed int64, workers int, rec *obs.Recorder) (Scheduler, error) {
	switch strings.ToUpper(name) {
	case "EEDCB":
		return EEDCB{Level: level, Workers: workers, Obs: rec}, nil
	case "GREED":
		return Greedy{Obs: rec}, nil
	case "RAND":
		return Random{Seed: seed, Obs: rec}, nil
	case "FR-EEDCB":
		return FREEDCB{Level: level, Workers: workers, Obs: rec}, nil
	case "FR-GREED":
		return FRGreedy{Workers: workers, Obs: rec}, nil
	case "FR-RAND":
		return FRRandom{Seed: seed, Workers: workers, Obs: rec}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// IncompleteError reports nodes that the planner could not cover within
// the delay window. The accompanying schedule is still valid for the
// covered nodes — the delivery-ratio experiments rely on that.
type IncompleteError struct {
	Uncovered []tvg.NodeID
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("core: %d node(s) unreachable within the delay window: %v",
		len(e.Uncovered), e.Uncovered)
}

// plannerView returns the graph the algorithm plans on: fading-aware
// algorithms see the true model, the rest assume a static channel.
func plannerView(g *tveg.Graph, fadingAware bool) *tveg.Graph {
	if fadingAware || g.Model == tveg.Static {
		return g
	}
	return g.WithModel(tveg.Static)
}

// informedSet tracks deterministic informed times during backbone
// construction (the planner's view: a transmission at sufficient cost
// informs its targets with certainty).
type informedSet struct {
	at []float64 // informed time per node, +Inf when uninformed
}

func newInformedSet(n int, src tvg.NodeID, t0 float64) *informedSet {
	s := &informedSet{at: make([]float64, n)}
	for i := range s.at {
		s.at[i] = math.Inf(1)
	}
	s.at[src] = t0
	return s
}

func (s *informedSet) informed(i tvg.NodeID) bool   { return !math.IsInf(s.at[i], 1) }
func (s *informedSet) time(i tvg.NodeID) float64    { return s.at[i] }
func (s *informedSet) mark(i tvg.NodeID, t float64) { s.at[i] = math.Min(s.at[i], t) }

func (s *informedSet) allInformed() bool {
	for _, t := range s.at {
		if math.IsInf(t, 1) {
			return false
		}
	}
	return true
}

func (s *informedSet) uncovered() []tvg.NodeID {
	var out []tvg.NodeID
	for i, t := range s.at {
		if math.IsInf(t, 1) {
			out = append(out, tvg.NodeID(i))
		}
	}
	return out
}

// candidate is one evaluated greedy transmission: relay transmits at t
// with cost w, newly informing newNodes.
type candidate struct {
	relay    tvg.NodeID
	t        float64
	w        float64
	newNodes []tvg.NodeID
}

// betterThan orders candidates: more coverage first, then earlier, then
// cheaper, then smaller relay id for determinism. Times and costs are
// compared exactly, not within a tolerance: a widened tie would make the
// greedy pick depend on which candidate came first. cmp.Compare treats
// -0 and +0 as equal, as == does; times and costs are never NaN.
func (c *candidate) betterThan(o *candidate) bool {
	if o == nil {
		return true
	}
	if len(c.newNodes) != len(o.newNodes) {
		return len(c.newNodes) > len(o.newNodes)
	}
	if r := cmp.Compare(c.t, o.t); r != 0 {
		return r < 0
	}
	if r := cmp.Compare(c.w, o.w); r != 0 {
		return r < 0
	}
	return c.relay < o.relay
}

// bestLevelCandidate finds, for relay i at time t, the DCS level
// maximizing newly informed nodes with minimal sufficient cost. It
// returns nil when no level informs anyone new.
func bestLevelCandidate(view *tveg.Graph, inf *informedSet, i tvg.NodeID, t float64) *candidate {
	levels := view.DCS(i, t)
	if len(levels) == 0 {
		return nil
	}
	var best *candidate
	var covered []tvg.NodeID
	for _, lvl := range levels {
		if !inf.informed(lvl.Node) {
			covered = append(covered, lvl.Node)
			cand := &candidate{relay: i, t: t, w: lvl.W,
				newNodes: append([]tvg.NodeID(nil), covered...)}
			if cand.betterThan(best) {
				best = cand
			}
		}
	}
	return best
}

// transmissionTimes enumerates the candidate transmission times of node i
// within [from, deadline-τ], drawn from its DTS points.
func transmissionTimes(view *tveg.Graph, pts [][]float64, i tvg.NodeID, from, deadline float64) []float64 {
	tau := view.Tau()
	var out []float64
	for _, t := range pts[i] {
		if t >= from-schedule.TimeTol && t+tau <= deadline+schedule.TimeTol {
			out = append(out, t)
		}
	}
	return out
}

// sortNodeIDs sorts node ids ascending (determinism helper).
func sortNodeIDs(xs []tvg.NodeID) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}
