// Package sim executes broadcast relay schedules on a TVEG and measures
// the §VII metrics: normalized energy consumption and packet delivery
// ratio. Under fading, execution is Monte Carlo: every transmission
// succeeds at each in-range receiver independently with probability
// 1 - φ(w), and — crucially — a relay that never received the packet
// cannot forward it, which is exactly the cascade failure that makes the
// non-fading-aware algorithms lose ~a third of the nodes in Fig. 6.
package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Result aggregates the evaluation of one schedule.
type Result struct {
	// PlannedEnergy is the schedule's total cost normalized by γth
	// (every transmission counted, whether or not it fires).
	PlannedEnergy float64
	// MeanEnergy is the mean consumed energy across trials, normalized
	// by γth: transmissions whose relay was never informed do not fire
	// and consume nothing.
	MeanEnergy float64
	// MeanDelivery is the mean fraction of nodes (source included) that
	// hold the packet at the end of a trial.
	MeanDelivery float64
	// StdDelivery is the sample standard deviation of the delivery
	// ratio across trials.
	StdDelivery float64
	// Trials is the number of Monte Carlo runs aggregated.
	Trials int
	// Workers is the number of worker goroutines that actually ran the
	// trials: 1 for Evaluate, and for EvaluateParallel the effective
	// pool size after clamping (so a requested workers > trials that
	// degraded to the serial path reports 1, not the request). The
	// per-worker trial split is parallel.SplitCounts(Trials, Workers).
	Workers int
}

func (r Result) String() string {
	return fmt.Sprintf("energy=%.4g delivery=%.3f±%.3f (planned %.4g, %d trials, %d workers)",
		r.MeanEnergy, r.MeanDelivery, r.StdDelivery, r.PlannedEnergy, r.Trials, r.Workers)
}

// Evaluate runs the schedule trials times from the given source and
// aggregates the metrics. The run is deterministic per rng. On a static
// graph one trial suffices (the dynamics are deterministic); callers may
// still pass more.
//
// Propagation follows the unified τ rule (see schedule.Informs and
// DESIGN.md "Execution semantics"): a reception from a transmission at
// t_k completes at t_k + τ, and the receiver cannot relay a transmission
// scheduled before that arrival. With τ = 0 same-time cascades resolve
// in schedule order exactly as before.
func Evaluate(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, rng *rand.Rand) Result {
	return EvaluateObs(g, s, src, trials, rng, nil)
}

// EvaluateObs is Evaluate with transmission/reception counters recorded
// into rec (sim.tx_fired, sim.tx_muted, sim.rx, sim.rx_failed, summed
// across trials). A nil rec records nothing; results are identical either
// way — the counters never feed back into the Monte Carlo dynamics.
func EvaluateObs(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, rng *rand.Rand, rec *obs.Recorder) Result {
	if trials <= 0 {
		panic(fmt.Sprintf("sim: non-positive trials %d", trials))
	}
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()

	// Handles are fetched once; the nil-safe ops inside the trial loop
	// are allocation-free when rec is nil (the obs AllocsPerRun guard).
	txFired := rec.Counter("sim.tx_fired")
	txMuted := rec.Counter("sim.tx_muted")
	rxOK := rec.Counter("sim.rx")
	rxFailed := rec.Counter("sim.rx_failed")

	gamma := g.Params.GammaTh
	tau := g.Tau()
	res := Result{PlannedEnergy: ordered.NormalizedCost(gamma), Trials: trials, Workers: 1}

	// The in-range receivers of each transmission and their failure
	// probabilities do not depend on the trial: build them once, in
	// EverNeighbors order, so every trial draws its random numbers in
	// the same order as a per-trial scan would. Transmission k's links
	// are links[off[k]:off[k+1]].
	type link struct {
		j       tvg.NodeID
		failure float64
	}
	var links []link
	rx := make([]tvg.NodeID, 0, g.N())
	off := make([]int, len(ordered)+1)
	for k, x := range ordered {
		rx = g.InRange(rx[:0], x.Relay, x.T)
		for _, j := range rx {
			links = append(links, link{j, g.EDAt(x.Relay, j, x.T).FailureProb(x.W)})
		}
		off[k+1] = len(links)
	}

	var sumDelivery, sumSqDelivery, sumEnergy float64
	recvAt := make([]float64, g.N())
	for trial := 0; trial < trials; trial++ {
		for i := range recvAt {
			recvAt[i] = math.Inf(1)
		}
		recvAt[src] = math.Inf(-1)
		var energy float64
		for k, x := range ordered {
			if recvAt[x.Relay] > x.T+schedule.TimeTol {
				// A relay whose packet has not arrived (t_recv = t_k + τ
				// of some earlier reception) cannot forward it: a node
				// informed at t is mute during [t-τ, t). With τ = 0 the
				// reception times of this trial all lie at or before x.T,
				// so the check degenerates to the boolean informed test
				// and the same-time cascade in schedule order survives.
				txMuted.Inc()
				continue
			}
			txFired.Inc()
			energy += x.W
			for _, l := range links[off[k]:off[k+1]] {
				if recvAt[l.j] <= x.T {
					continue // holds the packet already
				}
				if l.failure <= 0 || rng.Float64() >= l.failure {
					rxOK.Inc()
					if t := x.T + tau; t < recvAt[l.j] {
						recvAt[l.j] = t
					}
				} else {
					rxFailed.Inc()
				}
			}
		}
		delivered := 0
		for _, t := range recvAt {
			if !math.IsInf(t, 1) {
				delivered++
			}
		}
		ratio := float64(delivered) / float64(g.N())
		sumDelivery += ratio
		sumSqDelivery += ratio * ratio
		sumEnergy += energy / gamma
	}
	n := float64(trials)
	res.MeanDelivery = sumDelivery / n
	res.MeanEnergy = sumEnergy / n
	if trials > 1 {
		variance := (sumSqDelivery - sumDelivery*sumDelivery/n) / (n - 1)
		if variance > 0 {
			res.StdDelivery = math.Sqrt(variance)
		}
	}
	return res
}
