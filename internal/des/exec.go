package des

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Airtime-accurate broadcast execution: every transmission occupies the
// channel for a configurable airtime, receivers track the set of
// concurrently audible transmitters, and a packet decodes only if its
// transmitter was the sole audible one for the whole airtime (protocol
// interference model) — or independently-with-φ when interference
// modelling is disabled. Compared to the closed-form executor in
// internal/sim, this one yields per-node reception timestamps and honors
// τ > 0 naturally. Relay gating follows the unified τ-propagation rule
// (schedule.Informs / DESIGN.md "Execution semantics"): a node may
// forward only once its own reception has completed.

// ExecOptions tunes one execution.
type ExecOptions struct {
	// Airtime is the channel occupancy of one packet (seconds). Zero
	// uses the graph's τ, and if that is also zero a minimal slot is
	// required when Interference is on.
	Airtime float64
	// Interference enables the protocol collision model.
	Interference bool
	// Obs counts des.tx_fired / des.tx_skipped / des.rx / des.rx_failed /
	// des.collisions / des.delivered across executions. Write-only; nil
	// records nothing and realizations are identical either way.
	Obs *obs.Recorder
}

// ExecResult reports one realization.
type ExecResult struct {
	// InformedAt holds each node's reception time (+Inf when never
	// informed; the source is informed at the start time).
	InformedAt []float64
	// Delivered counts informed nodes (source included).
	Delivered int
	// ConsumedEnergy sums the costs of transmissions that fired.
	ConsumedEnergy float64
	// Collisions counts receptions lost to interference.
	Collisions int
}

// Execute runs the schedule once on g from src, with transmissions
// released at their scheduled times (a transmission whose relay lacks
// the packet at its start time is skipped). Deterministic per rng.
func Execute(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, start float64, opts ExecOptions, rng *rand.Rand) (ExecResult, error) {
	airtime := opts.Airtime
	if airtime == 0 {
		airtime = g.Tau()
	}
	if airtime == 0 && opts.Interference {
		return ExecResult{}, fmt.Errorf("des: interference model needs a positive airtime")
	}

	txFired := opts.Obs.Counter("des.tx_fired")
	txSkipped := opts.Obs.Counter("des.tx_skipped")
	rxOK := opts.Obs.Counter("des.rx")
	rxFailed := opts.Obs.Counter("des.rx_failed")

	n := g.N()
	res := ExecResult{InformedAt: make([]float64, n)}
	for i := range res.InformedAt {
		res.InformedAt[i] = inf
	}
	res.InformedAt[src] = start

	// audible[j] = number of concurrently audible transmitters at j;
	// corrupted[j] marks an ongoing candidate reception that lost to a
	// second transmitter.
	audible := make([]int, n)
	type reception struct {
		from      tvg.NodeID
		w         float64
		t         float64 // transmission start
		corrupted bool
	}
	current := make([]*reception, n)
	// rx holds each fired transmission's in-range receivers, found once
	// when it fires: RhoTau(relay, j, T) depends only on the
	// transmission, so the end of its airtime reuses the list.
	var rx []tvg.NodeID

	sim := New()
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()

	// Transmission starts run in class 1 so that reception completions
	// (class 0) landing at the same instant are visible to them.
	for _, x := range ordered {
		x := x
		sim.AtClass(x.T, 1, func(now float64) {
			if res.InformedAt[x.Relay] > now+schedule.TimeTol {
				txSkipped.Inc()
				return // relay's own reception incomplete: transmission skipped
			}
			txFired.Inc()
			res.ConsumedEnergy += x.W
			if !opts.Interference {
				// Without the collision model, receptions are independent:
				// each in-range node that lacks the packet when this
				// airtime ends gets its own φ draw. A concurrent
				// transmission must not mask this one — radios here have
				// no capture slot to fight over.
				sim.After(airtime, func(end float64) {
					for _, j := range g.EverNeighbors(x.Relay) {
						if !g.RhoTau(x.Relay, j, x.T) {
							continue
						}
						if res.InformedAt[j] <= end {
							continue
						}
						failure := g.EDAt(x.Relay, j, x.T).FailureProb(x.W)
						if failure <= 0 || rng.Float64() >= failure {
							rxOK.Inc()
							res.InformedAt[j] = end
						} else {
							rxFailed.Inc()
						}
					}
				})
				return
			}
			// mark the channel busy at every in-range node
			lo := len(rx)
			for _, j := range g.EverNeighbors(x.Relay) {
				if !g.RhoTau(x.Relay, j, x.T) {
					continue
				}
				rx = append(rx, j)
				audible[j]++
				if audible[j] > 1 {
					// collision: corrupt any ongoing reception too
					if cur := current[j]; cur != nil && !cur.corrupted {
						cur.corrupted = true
						res.Collisions++
					}
				}
				if res.InformedAt[j] <= now {
					continue // already has the packet
				}
				if current[j] == nil {
					rec := &reception{from: x.Relay, w: x.W, t: x.T}
					if audible[j] > 1 {
						rec.corrupted = true
						res.Collisions++
					}
					current[j] = rec
				}
			}
			hi := len(rx)
			// end of this transmission's airtime
			sim.After(airtime, func(end float64) {
				for _, j := range rx[lo:hi] {
					audible[j]--
					cur := current[j]
					if cur == nil || cur.from != x.Relay {
						continue
					}
					current[j] = nil
					if cur.corrupted {
						continue
					}
					if res.InformedAt[j] <= end {
						continue
					}
					failure := g.EDAt(cur.from, j, cur.t).FailureProb(cur.w)
					if failure <= 0 || rng.Float64() >= failure {
						rxOK.Inc()
						res.InformedAt[j] = end
					} else {
						rxFailed.Inc()
					}
				}
			})
		})
	}
	sim.RunAll()
	for _, t := range res.InformedAt {
		if t < inf {
			res.Delivered++
		}
	}
	opts.Obs.Counter("des.collisions").Add(int64(res.Collisions))
	opts.Obs.Counter("des.delivered").Add(int64(res.Delivered))
	return res, nil
}

const inf = 1e308
