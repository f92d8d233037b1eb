// Package des is the airtime-accurate broadcast executor: every
// transmission occupies the channel for a configurable airtime,
// receivers track the set of concurrently audible transmitters, and a
// packet decodes only if its transmitter was the sole audible one for
// the whole airtime (protocol interference model) — or
// independently-with-φ when interference modelling is disabled.
// Compared to the closed-form executor in internal/sim, this one yields
// per-node reception timestamps and honors τ > 0 naturally. Relay
// gating follows the unified τ-propagation rule (schedule.Informs /
// DESIGN.md "Execution semantics"): a node may forward only once its
// own reception has completed. A fired transmission's receivers come
// from one slot walk, tvg.InRange; a reception's failure probability is
// computed once, when its airtime ends at a node still lacking the
// packet.
package des

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// ExecOptions tunes one execution.
type ExecOptions struct {
	// Airtime is the channel occupancy of one packet (seconds). Zero
	// uses the graph's τ, and if that is also zero a minimal slot is
	// required when Interference is on. A negative or NaN airtime is an
	// error.
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
//
// Two event streams are merged in time order: the transmission starts,
// sorted up front, and the airtime ends, appended to a FIFO as
// transmissions fire. Every end lies one constant airtime after its
// start, so ends enter the FIFO in time order. At equal times an end
// runs before a start, so a packet received at t can be forwarded at t;
// events of one kind run in schedule order.
func Execute(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, start float64, opts ExecOptions, rng *rand.Rand) (ExecResult, error) {
	airtime := opts.Airtime
	if airtime == 0 {
		airtime = g.Tau()
	}
	if !(airtime >= 0) {
		return ExecResult{}, fmt.Errorf("des: airtime %g is negative or NaN", airtime)
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
		res.InformedAt[i] = math.Inf(1)
	}
	res.InformedAt[src] = start

	// audible[j] = number of concurrently audible transmitters at j;
	// current[j] is j's ongoing candidate reception while active,
	// corrupted once a second transmitter is audible.
	audible := make([]int, n)
	type reception struct {
		tx        schedule.Transmission
		active    bool
		corrupted bool
	}
	current := make([]reception, n)
	// rx holds each fired transmission's in-range receivers, found once
	// when it fires: RhoTau(relay, j, T) depends only on the
	// transmission, so the end of its airtime reuses the list.
	var rx []tvg.NodeID

	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()
	// ends is the FIFO of airtime ends: the end time, the row of ordered
	// that fired, and its in-range receivers rx[lo:hi].
	type airtimeEnd struct {
		t      float64
		k      int
		lo, hi int
	}
	ends := make([]airtimeEnd, 0, len(ordered))

	for next, head := 0, 0; next < len(ordered) || head < len(ends); {
		if head < len(ends) && (next == len(ordered) || ends[head].t <= ordered[next].T) {
			e := ends[head]
			head++
			x := ordered[e.k]
			for _, j := range rx[e.lo:e.hi] {
				// Without the collision model, receptions are
				// independent: each in-range node that lacks the packet
				// when this airtime ends gets its own φ draw. A
				// concurrent transmission must not mask this one —
				// radios here have no capture slot to fight over.
				tx := x
				if opts.Interference {
					audible[j]--
					cur := &current[j]
					if !cur.active || cur.tx.Relay != x.Relay {
						continue
					}
					cur.active = false
					if cur.corrupted {
						continue
					}
					tx = cur.tx
				}
				if res.InformedAt[j] <= e.t {
					continue
				}
				failure := g.EDAt(tx.Relay, j, tx.T).FailureProb(tx.W)
				if failure <= 0 || rng.Float64() >= failure {
					rxOK.Inc()
					res.InformedAt[j] = e.t
				} else {
					rxFailed.Inc()
				}
			}
			continue
		}

		k := next
		next++
		x := ordered[k]
		if res.InformedAt[x.Relay] > x.T+schedule.TimeTol {
			txSkipped.Inc()
			continue // relay's own reception incomplete: transmission skipped
		}
		txFired.Inc()
		res.ConsumedEnergy += x.W
		lo := len(rx)
		rx = g.InRange(rx, x.Relay, x.T)
		if opts.Interference {
			for _, j := range rx[lo:] {
				// mark the channel busy at j
				audible[j]++
				cur := &current[j]
				if audible[j] > 1 && cur.active && !cur.corrupted {
					// collision: corrupt any ongoing reception too
					cur.corrupted = true
					res.Collisions++
				}
				if res.InformedAt[j] <= x.T || cur.active {
					continue // already has the packet, or hears another
				}
				*cur = reception{tx: x, active: true, corrupted: audible[j] > 1}
				if cur.corrupted {
					res.Collisions++
				}
			}
		}
		ends = append(ends, airtimeEnd{t: x.T + airtime, k: k, lo: lo, hi: len(rx)})
	}
	for _, t := range res.InformedAt {
		if !math.IsInf(t, 1) {
			res.Delivered++
		}
	}
	opts.Obs.Counter("des.collisions").Add(int64(res.Collisions))
	opts.Obs.Counter("des.delivered").Add(int64(res.Delivered))
	return res, nil
}
