// Package schedule implements broadcast relay schedules (§IV): the
// n×3 matrix S = [R, T, W] of transmissions, the uninformed-probability
// computation of Eq. 6, and the four feasibility conditions of the TMEDB
// decision problem.
package schedule

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Transmission is one row s_k = [r_k, t_k, w_k] of a schedule: relay
// Relay transmits at time T with cost W.
type Transmission struct {
	Relay tvg.NodeID
	T     float64
	W     float64
}

func (x Transmission) String() string {
	return fmt.Sprintf("(v%d @%g w=%.3g)", x.Relay, x.T, x.W)
}

// Schedule is a broadcast relay schedule: an ordered list of
// transmissions. A relay may appear multiple times.
type Schedule []Transmission

// TotalCost returns Σ w_k, the cost of the schedule.
func (s Schedule) TotalCost() float64 {
	var c float64
	for _, x := range s {
		c += x.W
	}
	return c
}

// NormalizedCost returns the total cost divided by the linear decoding
// threshold γth, the paper's "normalized energy consumption" metric.
func (s Schedule) NormalizedCost(gammaTh float64) float64 {
	return s.TotalCost() / gammaTh
}

// Latency returns max(t_k) + τ, the broadcast latency of condition (iii).
func (s Schedule) Latency(tau float64) float64 {
	if len(s) == 0 {
		return 0
	}
	latest := s[0].T
	for _, x := range s[1:] {
		if x.T > latest {
			latest = x.T
		}
	}
	return latest + tau
}

// SortByTime orders the schedule chronologically (stable, so equal-time
// transmissions keep their relative order).
func (s Schedule) SortByTime() {
	sort.SliceStable(s, func(i, j int) bool { return s[i].T < s[j].T })
}

// TimeTol is the absolute slack (seconds) used when comparing
// transmission times against packet arrival times. The planners schedule
// a relay's next hop up to 1e-9 s before the packet's nominal arrival
// (their DTS point filter uses the same slack), so every consumer of the
// τ-propagation rule must tolerate that much skew or it would reject
// schedules the planners legitimately emit.
const TimeTol = 1e-9

// Informs is the single τ-propagation rule every executor in this repo
// implements (Def. 3.1: a hop's packet arrives at t_k + τ, and the next
// hop cannot depart before that arrival):
//
//	a transmission departing at tk can have informed the relay of a
//	transmission departing at tj  iff  tk + τ <= tj (within TimeTol);
//	at the same instant (tk == tj, only causally possible when τ = 0)
//	the earlier schedule row informs the later one — the documented
//	τ = 0 non-stop cascade tie-break.
//
// k and j are the two transmissions' schedule indices, used only for
// that same-instant tie-break.
func Informs(tk, tau, tj float64, k, j int) bool {
	if tk > tj {
		return false // packets do not travel backward in time
	}
	//tmedbvet:ignore floateq THE documented same-instant tie-break: Informs defines the exact-equality semantics every other comparison defers to
	if tk == tj {
		// Same-instant cascade: only a zero (or sub-tolerance) τ allows
		// it, and only in schedule order.
		return tau <= TimeTol && k < j
	}
	return tk+tau <= tj+TimeTol
}

// UninformedProb evaluates Eq. 6: the probability p_{i,t} that node i has
// not successfully received the packet by time t, given that src is the
// broadcast source (informed from the start). Only transmissions with
// t_k <= t whose link to i satisfies ρ_τ at t_k contribute.
//
// Note the departure-time semantics: a transmission counts as soon as it
// departs by t. That is the right reading for condition (ii), where the
// bound T-τ already accounts for the last hop's flight time; for
// condition (i) — is a relay informed when it transmits? — use
// RelayUninformedProb, which counts arrivals instead.
func UninformedProb(g *tveg.Graph, s Schedule, src, node tvg.NodeID, t float64) float64 {
	if node == src {
		return 0
	}
	p := 1.0
	for _, x := range s {
		if x.T > t || x.Relay == node {
			continue
		}
		if !g.RhoTau(x.Relay, node, x.T) {
			continue
		}
		p *= g.EDAt(x.Relay, node, x.T).FailureProb(x.W)
		if p == 0 {
			return 0
		}
	}
	return p
}

// RelayUninformedProb evaluates the probability that the relay of
// transmission s[j] has not received the packet by the instant it
// departs. Unlike UninformedProb's departure-time rule, only
// transmissions whose packet has *arrived* by t_j contribute
// (Informs: t_k + τ <= t_j, same-instant ones only when they precede
// s[j] in schedule order), and the relay's own transmissions never
// inform it. The source is informed from the start.
func RelayUninformedProb(g *tveg.Graph, s Schedule, src tvg.NodeID, j int) float64 {
	x := s[j]
	if x.Relay == src {
		return 0
	}
	tau := g.Tau()
	p := 1.0
	for k, y := range s {
		if y.Relay == x.Relay || !Informs(y.T, tau, x.T, k, j) {
			continue
		}
		if !g.RhoTau(y.Relay, x.Relay, y.T) {
			continue
		}
		p *= g.EDAt(y.Relay, x.Relay, y.T).FailureProb(y.W)
		if p == 0 {
			return 0
		}
	}
	return p
}

// Violation describes a broken feasibility condition.
type Violation struct {
	Condition int // 1..4 as in §IV
	Detail    string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("schedule: condition (%s) violated: %s", roman(v.Condition), v.Detail)
}

func roman(i int) string {
	switch i {
	case 1:
		return "i"
	case 2:
		return "ii"
	case 3:
		return "iii"
	case 4:
		return "iv"
	}
	return fmt.Sprint(i)
}

// CheckFeasible verifies the four conditions of the TMEDB decision
// problem for the schedule:
//
//	(i)   every relay is informed (p <= ε) by its transmission time,
//	(ii)  every node is informed by some t <= T-τ,
//	(iii) broadcast latency max(t_k)+τ <= T,
//	(iv)  total cost <= C (skipped when C is +Inf).
//
// It returns nil for a feasible schedule, or a *Violation naming the
// first broken condition.
func CheckFeasible(g *tveg.Graph, s Schedule, src tvg.NodeID, deadline, costBound float64) error {
	// Tolerate rounding: a cost computed by inverting φ lands exactly on
	// ε up to floating point.
	eps := g.Params.Eps * (1 + 1e-9)
	tau := g.Tau()
	// (i) relays informed by their transmission times. Only transmissions
	// whose packet has arrived (t_k + τ <= t, the Informs rule) count: a
	// transmission still in flight during [t_k, t_k+τ) cannot have
	// informed anyone yet.
	for j, x := range s {
		if p := RelayUninformedProb(g, s, src, j); p > eps {
			return &Violation{1, fmt.Sprintf("relay v%d uninformed at %g (p=%.4g > ε=%g)", x.Relay, x.T, p, eps)}
		}
	}
	// (iii) latency
	if lat := s.Latency(tau); lat > deadline {
		return &Violation{3, fmt.Sprintf("latency %g > T=%g", lat, deadline)}
	}
	// (ii) all nodes informed by T-τ
	for i := 0; i < g.N(); i++ {
		if p := UninformedProb(g, s, src, tvg.NodeID(i), deadline-tau); p > eps {
			return &Violation{2, fmt.Sprintf("node v%d uninformed by %g (p=%.4g > ε=%g)", i, deadline-tau, p, eps)}
		}
	}
	// (iv) cost bound
	if !math.IsInf(costBound, 1) {
		if c := s.TotalCost(); c > costBound {
			return &Violation{4, fmt.Sprintf("cost %g > C=%g", c, costBound)}
		}
	}
	return nil
}
