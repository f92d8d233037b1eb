package sim

import (
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// EvaluateParallel runs Evaluate's Monte Carlo trials across a worker
// pool and merges the results. Each worker owns a private RNG seeded
// with parallel.SplitSeed(seed, w), so the aggregate is deterministic
// for a given (seed, workers) pair regardless of interleaving.
// workers <= 0 selects GOMAXPROCS; the pool is clamped to the trial
// count, and the returned Result records the effective pool size in
// Workers — a requested pool that degraded to the serial path is
// visible as Workers == 1.
func EvaluateParallel(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, seed int64, workers int) Result {
	return EvaluateParallelObs(g, s, src, trials, seed, workers, nil)
}

// EvaluateParallelObs is EvaluateParallel with per-worker busy time and
// share counts recorded into rec's "sim.evaluate" pool, plus the
// transmission/reception counters of EvaluateObs. A nil rec records
// nothing; the merged Result is identical either way.
//
// The pool hands out one index per parallel.SplitCounts share; share w
// runs EvaluateObs on its own RNG seeded with parallel.SplitSeed(seed, w).
// A single share is EvaluateObs's Result unmerged, so workers == 1
// reproduces Evaluate bit for bit.
func EvaluateParallelObs(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, seed int64, workers int, rec *obs.Recorder) Result {
	counts := parallel.SplitCounts(trials, parallel.Resolve(workers))
	results := make([]Result, len(counts))
	_ = parallel.ForEach(rec.Pool("sim.evaluate"), nil, len(counts), len(counts), func(w int) {
		results[w] = EvaluateObs(g, s, src, counts[w], rng.New(parallel.SplitSeed(seed, w)), rec)
	}) // nil token: never fails
	if len(results) == 1 {
		return results[0]
	}
	return mergeResults(results)
}

// mergeResults pools per-worker Monte Carlo aggregates into one Result.
// The pooled delivery standard deviation uses the standard combined
// sum-of-squares formula. Workers records the pool size (one input
// Result per worker).
func mergeResults(rs []Result) Result {
	var total int
	var sumDel, sumEnergy, sumSq float64
	for _, r := range rs {
		n := float64(r.Trials)
		total += r.Trials
		sumDel += r.MeanDelivery * n
		sumEnergy += r.MeanEnergy * n
		// reconstruct Σx² from mean and sample variance
		variance := r.StdDelivery * r.StdDelivery
		sumSq += variance*(n-1) + r.MeanDelivery*r.MeanDelivery*n
	}
	out := Result{Trials: total, Workers: len(rs)}
	if total == 0 {
		return out
	}
	if len(rs) > 0 {
		out.PlannedEnergy = rs[0].PlannedEnergy
	}
	n := float64(total)
	out.MeanDelivery = sumDel / n
	out.MeanEnergy = sumEnergy / n
	if total > 1 {
		variance := (sumSq - sumDel*sumDel/n) / (n - 1)
		if variance > 0 {
			out.StdDelivery = math.Sqrt(variance)
		}
	}
	return out
}
