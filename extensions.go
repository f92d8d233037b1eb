package tmedb

// Extensions beyond the paper's core pipeline: the exact small-instance
// solver, trace characterization, parallel evaluation, and the two §VIII
// future-work directions (non-deterministic TVGs, interference).

import (
	"io"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/exact"
	"repro/internal/interference"
	"repro/internal/ndtvg"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/tracestats"
	"repro/internal/tveg"
)

// Observability: the solver-wide instrumentation layer of internal/obs.
// A nil *Recorder is the disabled default — every instrumented code path
// is a zero-allocation no-op without one, and schedules are byte-identical
// with or without recording (see DESIGN.md "Observability").
type (
	// Recorder collects counters, gauges, rolling windows, phase spans, and
	// worker-pool utilization for one run.
	Recorder = obs.Recorder
	// RunReport is a recorder snapshot: the stable-JSON run report.
	RunReport = obs.Report
	// ScheduleMeta is the optional provenance block of a schedule file.
	ScheduleMeta = schedule.Meta
)

// NewRecorder returns an enabled metrics recorder.
func NewRecorder() *Recorder { return obs.New() }

// CacheStats is a point-in-time view of a graph's cost-cache counters:
// MinCost and DCS queries answered from an already filled cost-set piece
// (hits) or by filling one (misses), the number of pieces filled, and
// the Rician/Nakagami channel-inversion memo.
type CacheStats = tveg.CacheStats

// RecordCacheStats samples g's cost-cache counters into rec under the
// cache.tveg.min_cost / cache.tveg.dcs / cache.channel.memo gauge
// families (run reports derive a .hit_rate per family). The tveg.dcs
// size is the number of cost-set pieces filled; MinCost reads those
// pieces, so the tveg.min_cost size is 0. No-op when rec is nil.
func RecordCacheStats(rec *Recorder, g *Graph) {
	if rec == nil {
		return
	}
	st, _ := g.CostCacheStats()
	rec.RecordCache("tveg.min_cost", st.MinCostHits, st.MinCostMisses, st.MinCostSize)
	rec.RecordCache("tveg.dcs", st.DCSHits, st.DCSMisses, st.DCSSize)
	rec.RecordCache("channel.memo", st.EDMemo.Hits, st.EDMemo.Misses, st.EDMemo.Size)
}

// EvaluateObs is Evaluate with sim transmission/reception counters
// recorded into rec (nil records nothing; results are identical).
func EvaluateObs(g *Graph, s Schedule, src NodeID, trials int, seed int64, rec *Recorder) Result {
	return sim.EvaluateObs(g, s, src, trials, rng.New(seed), rec)
}

// EvaluateParallelObs is EvaluateParallel with per-worker busy time
// recorded into rec's "sim.evaluate" pool (nil records nothing).
func EvaluateParallelObs(g *Graph, s Schedule, src NodeID, trials int, seed int64, workers int, rec *Recorder) Result {
	return sim.EvaluateParallelObs(g, s, src, trials, seed, workers, rec)
}

// WriteScheduleJSONMeta writes a schedule with an embedded provenance
// block (nil meta matches WriteScheduleJSON byte for byte).
func WriteScheduleJSONMeta(w io.Writer, s Schedule, meta *ScheduleMeta) error {
	return s.WriteJSONMeta(w, meta)
}

// ReadScheduleJSONMeta parses a schedule file along with its provenance
// block (nil for meta-less files).
func ReadScheduleJSONMeta(r io.Reader) (Schedule, *ScheduleMeta, error) {
	return schedule.ReadJSONMeta(r)
}

// EvaluateParallel is Evaluate across a deterministic worker pool:
// results depend only on (seed, workers), not on scheduling. workers <= 0
// selects GOMAXPROCS.
func EvaluateParallel(g *Graph, s Schedule, src NodeID, trials int, seed int64, workers int) Result {
	return sim.EvaluateParallel(g, s, src, trials, seed, workers)
}

// OptimalSchedule solves a small TMEDB-S instance (static channel,
// τ = 0, N <= 16) exactly by search over (time, informed-set) states,
// returning the minimum-cost feasible schedule and its cost. Use it to
// validate heuristics; it is exponential in N.
func OptimalSchedule(g *Graph, src NodeID, t0, deadline float64) (Schedule, float64, error) {
	return exact.Solve(g, src, t0, deadline)
}

// TraceReport summarizes a contact trace: duration and inter-contact
// statistics, a power-law tail fit, and a degree timeline.
type TraceReport = tracestats.Report

// AnalyzeTrace computes a TraceReport (degreeSamples <= 0 defaults
// to 32).
func AnalyzeTrace(t *Trace, degreeSamples int) TraceReport {
	return tracestats.Analyze(t, degreeSamples)
}

// --- Non-deterministic TVGs (§VIII future work) --------------------------

// NDGraph is a non-deterministic TVEG: every contact carries a
// materialization probability (the general ρ: E×T → [0,1] presence
// function of the TVG framework).
type NDGraph = ndtvg.Graph

// RobustResult aggregates a schedule's delivery across sampled
// realizations of a non-deterministic graph.
type RobustResult = ndtvg.RobustResult

// NewNDGraph creates an empty non-deterministic graph.
func NewNDGraph(n int, span Interval, tau float64, params Params, model Model) *NDGraph {
	return ndtvg.New(n, span, tau, params, model)
}

// NDFromTrace lifts a trace into a non-deterministic graph with
// per-contact probabilities drawn uniformly from [pmin, pmax].
func NDFromTrace(t *Trace, tau float64, params Params, model Model, pmin, pmax float64, seed int64) *NDGraph {
	return ndtvg.FromTrace(t, tau, params, model, pmin, pmax, rng.New(seed))
}

// PlanRobust plans on the contacts with probability >= threshold and
// evaluates the schedule across sampled realizations.
func PlanRobust(g *NDGraph, planner Scheduler, src NodeID, t0, deadline, threshold float64, realizations, trialsPer int, seed int64) (Schedule, RobustResult, error) {
	return ndtvg.PlanRobust(g, planner, src, t0, deadline, threshold, realizations, trialsPer, seed)
}

// EvaluateRobust executes an existing schedule across realizations.
func EvaluateRobust(g *NDGraph, s Schedule, src NodeID, realizations, trialsPer int, seed int64) RobustResult {
	return ndtvg.EvaluateRobust(g, s, src, realizations, trialsPer, seed)
}

// --- Interference (§VIII future work) ------------------------------------

// Conflict names two schedule entries that can collide at a receiver
// under the protocol interference model.
type Conflict = interference.Conflict

// DetectConflicts finds transmission pairs with overlapping airtime and
// a shared in-range receiver. slot is one packet's airtime (used when
// τ = 0).
func DetectConflicts(g *Graph, s Schedule, slot float64) []Conflict {
	return interference.Detect(g, s, slot)
}

// SerializeSchedule delays colliding transmissions apart within their
// ET-law equivalence intervals so the schedule is collision-free.
func SerializeSchedule(g *Graph, s Schedule, slot float64) (Schedule, error) {
	return interference.Serialize(g, s, slot)
}

// EvaluateWithInterference measures delivery under collision semantics:
// a receiver hearing two or more simultaneous transmitters decodes
// nothing.
func EvaluateWithInterference(g *Graph, s Schedule, src NodeID, slot float64, trials int, seed int64) float64 {
	return interference.Evaluate(g, s, src, slot, trials, rng.New(seed))
}

// WriteScheduleJSON writes a schedule in the stable versioned JSON
// format; ReadScheduleJSON parses it back.
func WriteScheduleJSON(w io.Writer, s Schedule) error { return s.WriteJSON(w) }

// ReadScheduleJSON parses a schedule written by WriteScheduleJSON.
func ReadScheduleJSON(r io.Reader) (Schedule, error) { return schedule.ReadJSON(r) }

// LowerBound returns a certified lower bound on the optimal TMEDB cost:
// the auxiliary-graph shortest-path cost to the hardest node. Any
// feasible schedule costs at least this much, so
// heuristicCost / LowerBound certifies a per-instance approximation gap.
func LowerBound(g *Graph, src NodeID, t0, deadline float64) (bound float64, unreachable []NodeID, err error) {
	return core.LowerBound(g, src, t0, deadline)
}

// --- Temporal-graph queries ----------------------------------------------

// Foremost returns the earliest-arrival journey src→dst departing at or
// after t0 (nil when unreachable). Shortest and Fastest follow
// Bui-Xuan et al.'s taxonomy.
func Foremost(g *Graph, src, dst NodeID, t0 float64) Journey {
	return g.ForemostJourney(src, dst, t0)
}

// Shortest returns a minimum-hop journey src→dst departing at or after
// t0.
func Shortest(g *Graph, src, dst NodeID, t0 float64) Journey {
	return g.ShortestJourney(src, dst, t0)
}

// Fastest returns a minimum-duration journey src→dst within [t0, tEnd].
func Fastest(g *Graph, src, dst NodeID, t0, tEnd float64) Journey {
	return g.FastestJourney(src, dst, t0, tEnd)
}

// Reachable returns the temporal reachability matrix for [t1, t2]:
// m[i][j] reports whether a journey i→j fits in the window.
func Reachable(g *Graph, t1, t2 float64) [][]bool {
	return g.ReachabilityMatrix(t1, t2)
}

// --- Discrete-event execution ---------------------------------------------

// ExecOptions tunes the airtime-accurate discrete-event executor.
type ExecOptions = des.ExecOptions

// ExecResult reports one discrete-event realization: per-node reception
// timestamps, consumed energy, and collision counts.
type ExecResult = des.ExecResult

// ExecuteDES runs the schedule once through the discrete-event executor:
// transmissions occupy the channel for a real airtime, relays cannot
// decode and forward within one airtime, and (optionally) concurrent
// transmitters collide at shared receivers. Deterministic per seed.
func ExecuteDES(g *Graph, s Schedule, src NodeID, start float64, opts ExecOptions, seed int64) (ExecResult, error) {
	return des.Execute(g, s, src, start, opts, rng.New(seed))
}

// --- Differential schedule audit ------------------------------------------

// AuditReport summarizes a differential schedule-audit run: randomized
// (graph, schedule, τ) cases executed through every execution semantics
// in the repo, with one Mismatch (including the reference executor's
// event trace) per disagreement.
type AuditReport = audit.Report

// AuditMismatch is one failed audit case.
type AuditMismatch = audit.Mismatch

// AuditTrace is the reference executor's result: per-node reception
// times, fired transmissions, consumed energy, and an ordered
// Tx/Recv/Drop event trace with causes.
type AuditTrace = audit.Trace

// RunAudit generates `cases` seeded differential cases (static and
// Rayleigh channels, τ ∈ {0, small, large}, random and planner-produced
// schedules) and cross-checks sim.Evaluate, CheckFeasible, the
// discrete-event executor, and an independent feasibility recoding
// against the reference executor. Deterministic per seed.
func RunAudit(cases int, seed int64) AuditReport {
	return audit.RunDifferential(cases, seed)
}

// AuditSchedule cross-checks one concrete schedule through every
// execution semantics and returns one line per disagreement (nil when
// all agree).
func AuditSchedule(g *Graph, s Schedule, src NodeID, t0, deadline, costBound float64) []string {
	return audit.CompareSchedule(g, s, src, t0, deadline, costBound)
}

// ReferenceExecute runs the latency-aware reference executor once. With
// events on, the trace records every transmission, reception (stamped
// at arrival t+τ), and drop with its cause.
func ReferenceExecute(g *Graph, s Schedule, src NodeID, t0 float64, events bool) *AuditTrace {
	return audit.Execute(g, s, src, audit.Options{T0: t0, Events: events})
}
