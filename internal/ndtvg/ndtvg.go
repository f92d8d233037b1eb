// Package ndtvg implements non-deterministic time-varying energy-demand
// graphs — the first of the two future-work directions named in §VIII.
// The presence function becomes probabilistic (ρ: E×T → [0,1], the
// general TVG definition of Casteigts et al. [7] that the paper
// restricts to {0,1}): every contact carries a materialization
// probability, modelling predicted encounters that may not happen.
//
// The package supports three workflows:
//
//   - Sample — draw deterministic TVEG realizations;
//   - LikelyView — the deterministic graph containing contacts with
//     materialization probability above a threshold, which any §VI
//     planner can run on;
//   - EvaluateRobust — plan once on a view, then execute the schedule
//     across many sampled realizations to measure robust delivery.
package ndtvg

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/haggle"
	"repro/internal/interval"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Contact is a predicted contact: present in a realization with
// probability P.
type Contact struct {
	I, J tvg.NodeID
	Iv   interval.Interval
	Dist float64
	P    float64
}

// Graph is a non-deterministic TVEG: a distribution over deterministic
// TVEGs.
type Graph struct {
	N        int
	Span     interval.Interval
	Tau      float64
	Params   tveg.Params
	Model    tveg.Model
	Contacts []Contact
}

// New creates an empty non-deterministic graph.
func New(n int, span interval.Interval, tau float64, params tveg.Params, model tveg.Model) *Graph {
	return &Graph{N: n, Span: span, Tau: tau, Params: params, Model: model}
}

// AddContact records a predicted contact with probability p ∈ (0, 1].
func (g *Graph) AddContact(i, j tvg.NodeID, iv interval.Interval, dist, p float64) {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("ndtvg: probability %g outside (0,1]", p))
	}
	g.Contacts = append(g.Contacts, Contact{I: i, J: j, Iv: iv, Dist: dist, P: p})
}

// FromTrace lifts a deterministic trace into a non-deterministic graph,
// assigning every contact an independent probability drawn uniformly
// from [pmin, pmax].
func FromTrace(t *haggle.Trace, tau float64, params tveg.Params, model tveg.Model, pmin, pmax float64, rng *rand.Rand) *Graph {
	g := New(t.N, interval.Interval{Start: 0, End: t.Horizon}, tau, params, model)
	for _, c := range t.Contacts {
		p := pmin + rng.Float64()*(pmax-pmin)
		g.AddContact(tvg.NodeID(c.I), tvg.NodeID(c.J),
			interval.Interval{Start: c.Start, End: c.End}, c.Dist, p)
	}
	return g
}

// Sample draws one deterministic realization: each contact materializes
// independently with its probability.
func (g *Graph) Sample(rng *rand.Rand) *tveg.Graph {
	out := tveg.New(g.N, g.Span, g.Tau, g.Params, g.Model)
	for _, c := range g.Contacts {
		if rng.Float64() < c.P {
			out.AddContact(c.I, c.J, c.Iv, c.Dist)
		}
	}
	return out
}

// LikelyView returns the deterministic TVEG containing exactly the
// contacts with P >= threshold. Planning on a high threshold trades
// coverage for robustness: the kept contacts are likely to exist in any
// realization.
func (g *Graph) LikelyView(threshold float64) *tveg.Graph {
	out := tveg.New(g.N, g.Span, g.Tau, g.Params, g.Model)
	for _, c := range g.Contacts {
		if c.P >= threshold {
			out.AddContact(c.I, c.J, c.Iv, c.Dist)
		}
	}
	return out
}

// RobustResult aggregates a schedule's behaviour across realizations.
type RobustResult struct {
	// PlannedEnergy is the schedule cost normalized by γth.
	PlannedEnergy float64
	// MeanDelivery averages the per-realization mean delivery ratio.
	MeanDelivery float64
	// WorstDelivery is the minimum per-realization mean delivery.
	WorstDelivery float64
	// Realizations is the number of sampled graphs.
	Realizations int
}

func (r RobustResult) String() string {
	return fmt.Sprintf("robust{energy=%.4g delivery=%.3f worst=%.3f over %d realizations}",
		r.PlannedEnergy, r.MeanDelivery, r.WorstDelivery, r.Realizations)
}

// EvaluateRobust executes a schedule planned elsewhere across sampled
// realizations: per realization, transmissions only reach receivers
// whose contact actually materialized (and, under fading, decode
// probabilistically). trialsPer controls the Monte Carlo depth per
// realization.
func EvaluateRobust(g *Graph, s schedule.Schedule, src tvg.NodeID, realizations, trialsPer int, seed int64) RobustResult {
	if realizations <= 0 {
		panic(fmt.Sprintf("ndtvg: non-positive realizations %d", realizations))
	}
	rnd := rng.New(seed)
	out := RobustResult{Realizations: realizations, WorstDelivery: 1}
	var sum float64
	for r := 0; r < realizations; r++ {
		real := g.Sample(rnd)
		res := sim.Evaluate(real, s, src, trialsPer, rng.New(seed+int64(r)+1))
		sum += res.MeanDelivery
		if res.MeanDelivery < out.WorstDelivery {
			out.WorstDelivery = res.MeanDelivery
		}
		if r == 0 {
			out.PlannedEnergy = res.PlannedEnergy
		}
	}
	out.MeanDelivery = sum / float64(realizations)
	return out
}

// PlanRobust plans on the threshold view and evaluates robustly — the
// end-to-end future-work pipeline. It returns the schedule alongside the
// result; scheduling errors (including partial coverage) pass through.
func PlanRobust(g *Graph, planner core.Scheduler, src tvg.NodeID, t0, deadline, threshold float64, realizations, trialsPer int, seed int64) (schedule.Schedule, RobustResult, error) {
	view := g.LikelyView(threshold)
	s, err := planner.Schedule(view, src, t0, deadline)
	if s == nil && err != nil {
		return nil, RobustResult{}, err
	}
	res := EvaluateRobust(g, s, src, realizations, trialsPer, seed)
	return s, res, err
}
