// Package tmedb is the public API of the TMEDB reproduction: the
// time-varying minimum-energy delay-constrained broadcast problem of
// "Energy-Efficient and Delay-Constrained Broadcast in Time-Varying
// Energy-Demand Graphs" (Qiu, Shen, Yu — ICPP 2015).
//
// The package re-exports the model types (time-varying energy-demand
// graphs, schedules, contact traces), the paper's schedulers (EEDCB,
// FR-EEDCB, and the GREED/RAND baselines), the trace-driven Monte Carlo
// evaluator, and the experiment harness that regenerates every figure of
// the paper's evaluation section.
//
// Quick start:
//
//	trace := tmedb.GenerateTrace(tmedb.TraceOptions{}, 1)
//	g := trace.ToTVEG(0, tmedb.DefaultParams(), tmedb.Rayleigh)
//	sched, err := tmedb.FREEDCB{}.Schedule(g, 0, 9000, 11000)
//	if err != nil { ... }
//	res := tmedb.Evaluate(g, sched, 0, 1000, 42)
//	fmt.Println(res)
package tmedb

import (
	"io"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/haggle"
	"repro/internal/interval"
	"repro/internal/mobility"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Model and graph types.
type (
	// Graph is a time-varying energy-demand graph (Definition 3.2).
	Graph = tveg.Graph
	// Params holds the physical-layer constants of §VII.
	Params = tveg.Params
	// Model selects the channel model (static / Rayleigh / extensions).
	Model = tveg.Model
	// NodeID identifies a node (0..N-1).
	NodeID = tvg.NodeID
	// Interval is a half-open time interval [Start, End).
	Interval = interval.Interval
	// Journey is a multi-hop temporal path (Definition 3.1).
	Journey = tvg.Journey
	// Hop is one edge traversal of a journey.
	Hop = tvg.Hop
	// EDFunction is an energy-demand function φ: cost → failure
	// probability (Property 3.1).
	EDFunction = channel.EDFunction
	// CostLevel is one entry of a discrete cost set (§VI-A).
	CostLevel = tveg.CostLevel
)

// Channel models.
const (
	// Static is the deterministic channel of Eq. 2.
	Static = tveg.Static
	// Rayleigh is the fading channel of Eq. 5.
	Rayleigh = tveg.RayleighFading
	// Rician is the Rician fading extension (footnote 1).
	Rician = tveg.RicianFading
	// Nakagami is the Nakagami-m fading extension (footnote 1).
	Nakagami = tveg.NakagamiFading
)

// Schedules and evaluation.
type (
	// Schedule is a broadcast relay schedule S = [R, T, W] (§IV).
	Schedule = schedule.Schedule
	// Transmission is one row of a schedule.
	Transmission = schedule.Transmission
	// Violation names the feasibility condition a schedule breaks.
	Violation = schedule.Violation
	// Result aggregates a Monte Carlo evaluation (§VII metrics).
	Result = sim.Result
)

// Schedulers (§VI and §VII).
type (
	// Scheduler plans broadcasts on a TVEG.
	Scheduler = core.Scheduler
	// EEDCB is the §VI-A scheduler (static-channel assumption).
	EEDCB = core.EEDCB
	// FREEDCB is the fading-resistant §VI-B scheduler.
	FREEDCB = core.FREEDCB
	// Greedy is the GREED baseline.
	Greedy = core.Greedy
	// FRGreedy is the FR-GREED baseline.
	FRGreedy = core.FRGreedy
	// Random is the RAND baseline.
	Random = core.Random
	// FRRandom is the FR-RAND baseline.
	FRRandom = core.FRRandom
	// IncompleteError reports nodes unreachable within a delay window.
	IncompleteError = core.IncompleteError
)

// Traces.
type (
	// Trace is a contact trace in the Haggle style.
	Trace = haggle.Trace
	// Contact is one pairwise contact of a trace.
	Contact = haggle.Contact
	// TraceOptions tunes the synthetic trace generator.
	TraceOptions = haggle.GenOptions
)

// Reporting.
type (
	// Series is one labelled curve of a figure.
	Series = stats.Series
	// Summary holds aggregate statistics of a sample.
	Summary = stats.Summary
)

// MobilityModel holds random-waypoint parameters for synthetic
// geometry-backed traces.
type MobilityModel = mobility.Model

// DefaultMobilityModel returns a pedestrian-scale arena (200x200 m,
// 0.5-1.5 m/s, 30 s pauses).
func DefaultMobilityModel() MobilityModel { return mobility.DefaultModel() }

// MobilityTrace simulates n random-waypoint nodes over [0, horizon]
// (sampled every dt seconds), extracts contacts whenever two nodes come
// within radius meters, and returns them as a contact trace whose
// distances drive the fading ED-functions. Deterministic per seed.
func MobilityTrace(m MobilityModel, n int, horizon, dt, radius float64, seed int64) *Trace {
	tr := mobility.Simulate(m, n, horizon, dt, rng.New(seed))
	out := &Trace{N: n, Horizon: horizon}
	for _, c := range tr.Contacts(radius, 0.5) {
		out.Contacts = append(out.Contacts, Contact{
			I: c.I, J: c.J, Start: c.Start, End: c.End, Dist: c.Dist,
		})
	}
	return out
}

// DefaultParams returns the §VII evaluation constants: N0 = 4.32e-21
// W/Hz, γth = 25.9 dB, α = 2, ε = 0.01.
func DefaultParams() Params { return tveg.DefaultParams() }

// NewGraph creates an empty TVEG with n nodes over span with edge
// traversal time tau.
func NewGraph(n int, span Interval, tau float64, params Params, model Model) *Graph {
	return tveg.New(n, span, tau, params, model)
}

// GenerateTrace builds a synthetic Haggle-like contact trace,
// deterministic per seed.
func GenerateTrace(opts TraceOptions, seed int64) *Trace {
	return haggle.Generate(opts, rng.New(seed))
}

// ReadTrace parses a contact trace: the native format written by
// Trace.Write, headerless CRAWDAD-style dumps, and gzip-compressed
// variants of either are all accepted.
func ReadTrace(r io.Reader) (*Trace, error) { return haggle.ReadAuto(r) }

// Evaluate executes the schedule on g for the given number of Monte
// Carlo trials (deterministic per seed) and returns the §VII metrics.
func Evaluate(g *Graph, s Schedule, src NodeID, trials int, seed int64) Result {
	return sim.Evaluate(g, s, src, trials, rng.New(seed))
}

// CheckFeasible verifies the four TMEDB feasibility conditions of §IV
// for a schedule: relays informed before transmitting, all nodes informed
// in time, latency within the deadline, and cost within costBound (pass
// +Inf to skip). It returns nil or a *Violation.
func CheckFeasible(g *Graph, s Schedule, src NodeID, deadline, costBound float64) error {
	return schedule.CheckFeasible(g, s, src, deadline, costBound)
}

// UninformedProb evaluates Eq. 6: the probability that node has not
// received the packet by time t under schedule s from source src.
func UninformedProb(g *Graph, s Schedule, src, node NodeID, t float64) float64 {
	return schedule.UninformedProb(g, s, src, node, t)
}

// Summarize computes aggregate statistics of a sample.
func Summarize(xs []float64) Summary { return stats.Summarize(xs) }
