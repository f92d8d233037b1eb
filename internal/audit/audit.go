// Package audit cross-checks the repo's three schedule-execution
// semantics against one latency-aware reference executor and against an
// independently coded feasibility check. The executors under audit are
//
//   - sim.Evaluate        (Monte Carlo metrics),
//   - schedule.CheckFeasible (closed-form Eq. 6 conditions i–iv),
//   - des.Execute         (airtime discrete-event executor),
//
// all of which must implement the unified τ-propagation rule
// (schedule.Informs, DESIGN.md "Execution semantics"): a packet
// transmitted at t_k arrives at t_k + τ and its receiver cannot relay a
// transmission scheduled before that arrival; at τ = 0, same-instant
// cascades resolve in schedule order.
//
// The differential oracle (oracle.go) runs randomized (graph, schedule,
// τ) cases through every executor and fails loudly on any disagreement
// about who is informed when, which transmissions fire, consumed energy,
// or feasibility verdicts, and on any node informed before its
// foremost-journey arrival (the delay oracle). Fading channels are made
// comparable by driving the Monte Carlo executors with the ForceSuccess
// source, under which a reception succeeds iff its failure probability
// is at most MaxDraw — exactly the reference executor's rule, Possible.
package audit

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// MaxDraw is the largest value math/rand.(*Rand).Float64 can return:
// 1 - 2^-53. The executors treat a reception as successful when the
// draw is >= the failure probability, so under ForceSuccess a reception
// succeeds iff failure <= MaxDraw.
const MaxDraw = 1 - 0x1p-53

// forceSuccessSource is a rand.Source whose every Int63 draw is the
// largest int64 that still converts to a float64 below 2^63, making
// Float64 return MaxDraw deterministically (returning 1<<63-1 instead
// would round to 2^63, hit Float64's f == 1 resample branch, and loop
// forever).
type forceSuccessSource struct{}

func (forceSuccessSource) Int63() int64 { return 1<<63 - 1024 }
func (forceSuccessSource) Seed(int64)   {}

// ForceSuccess returns a rand.Rand whose Float64 always yields MaxDraw,
// so every reception with failure probability <= MaxDraw succeeds and
// every reception with failure probability above it (in particular the
// static channel's φ = 1) fails. It turns sim.Evaluate and des.Execute
// into deterministic optimistic executors comparable with Execute.
func ForceSuccess() *rand.Rand { return rand.New(forceSuccessSource{}) }

// Possible is the reference executor's reception rule: a reception is
// granted iff it is possible under the ForceSuccess-driven Monte Carlo
// executors.
func Possible(failure float64) bool { return failure <= MaxDraw }

// EventKind labels one entry of the instrumented event trace.
type EventKind int

const (
	// EventTx records a transmission that fired.
	EventTx EventKind = iota
	// EventRecv records a completed reception (stamped at arrival).
	EventRecv
	// EventDrop records a skipped transmission or a failed reception,
	// with the cause.
	EventDrop
)

func (k EventKind) String() string {
	switch k {
	case EventTx:
		return "tx"
	case EventRecv:
		return "recv"
	case EventDrop:
		return "drop"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one entry of the reference executor's trace. Events appear
// in causal processing order (chronological by transmission; a Recv is
// emitted while its transmission is processed but stamped with the
// arrival time t_k + τ).
type Event struct {
	Kind EventKind
	// Index is the transmission's row in the chronologically ordered
	// schedule (Trace.Ordered).
	Index int
	// Relay is the transmitting node.
	Relay tvg.NodeID
	// Node is the receiver for Recv and reception Drops; equal to
	// Relay for Tx and skipped-transmission Drops.
	Node tvg.NodeID
	// T is the departure time for Tx/skip events and the arrival time
	// for Recv events.
	T float64
	// W is the transmission cost.
	W float64
	// Cause explains a Drop.
	Cause string
}

func (e Event) String() string {
	switch e.Kind {
	case EventTx:
		return fmt.Sprintf("tx    #%d v%d @%g w=%.3g", e.Index, e.Relay, e.T, e.W)
	case EventRecv:
		return fmt.Sprintf("recv  #%d v%d<-v%d @%g", e.Index, e.Node, e.Relay, e.T)
	default:
		return fmt.Sprintf("drop  #%d v%d<-v%d @%g (%s)", e.Index, e.Node, e.Relay, e.T, e.Cause)
	}
}

// Trace is the result of one reference execution.
type Trace struct {
	// Ordered is the chronologically ordered copy of the schedule the
	// executor ran; event indices refer to its rows.
	Ordered schedule.Schedule
	// RecvAt holds each node's reception time (+Inf when never
	// informed; the source holds T0).
	RecvAt []float64
	// Fired marks the rows of Ordered that actually transmitted.
	Fired []bool
	// ConsumedEnergy sums the costs of fired transmissions (joules,
	// not normalized).
	ConsumedEnergy float64
	// Delivered counts informed nodes, source included.
	Delivered int
	// Events is the ordered event trace (nil unless Options.Events).
	Events []Event
}

// Options tunes one reference execution.
type Options struct {
	// T0 is the broadcast release time (the source's informed time).
	T0 float64
	// Events enables the instrumented event trace.
	Events bool
}

// Execute runs the schedule once from src under the unified
// τ-propagation rule and returns the full reception trace. It is the
// reference the differential oracle compares every other executor
// against, so it is written for obviousness, not speed: chronological
// sweep, per-node arrival times, the relay gate t_recv <= t_k + TimeTol,
// and reception grants at t_k + τ under Possible.
func Execute(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, opts Options) *Trace {
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()

	tau := g.Tau()
	tr := &Trace{
		Ordered: ordered,
		RecvAt:  make([]float64, g.N()),
		Fired:   make([]bool, len(ordered)),
	}
	for i := range tr.RecvAt {
		tr.RecvAt[i] = math.Inf(1)
	}
	tr.RecvAt[src] = opts.T0

	emit := func(e Event) {
		if opts.Events {
			tr.Events = append(tr.Events, e)
		}
	}
	for k, x := range ordered {
		if arrive := tr.RecvAt[x.Relay]; arrive > x.T+schedule.TimeTol {
			cause := "relay never informed"
			if !math.IsInf(arrive, 1) {
				cause = fmt.Sprintf("relay's packet still in flight (arrives at %g)", arrive)
			}
			emit(Event{Kind: EventDrop, Index: k, Relay: x.Relay, Node: x.Relay, T: x.T, W: x.W, Cause: cause})
			continue
		}
		tr.Fired[k] = true
		tr.ConsumedEnergy += x.W
		emit(Event{Kind: EventTx, Index: k, Relay: x.Relay, Node: x.Relay, T: x.T, W: x.W})
		for _, j := range g.EverNeighbors(x.Relay) {
			if tr.RecvAt[j] <= x.T {
				continue // already holds the packet
			}
			if !g.RhoTau(x.Relay, j, x.T) {
				continue // out of range for the whole [t, t+τ] window
			}
			failure := g.EDAt(x.Relay, j, x.T).FailureProb(x.W)
			if !Possible(failure) {
				emit(Event{Kind: EventDrop, Index: k, Relay: x.Relay, Node: j, T: x.T, W: x.W,
					Cause: fmt.Sprintf("channel failure (φ=%.4g)", failure)})
				continue
			}
			if t := x.T + tau; t < tr.RecvAt[j] {
				tr.RecvAt[j] = t
				emit(Event{Kind: EventRecv, Index: k, Relay: x.Relay, Node: j, T: t, W: x.W})
			}
		}
	}
	for _, t := range tr.RecvAt {
		if !math.IsInf(t, 1) {
			tr.Delivered++
		}
	}
	return tr
}

// FormatEvents renders the event trace one line per event — the
// explanation attached to every oracle mismatch.
func FormatEvents(events []Event) string {
	if len(events) == 0 {
		return "(no events)"
	}
	out := ""
	for _, e := range events {
		out += e.String() + "\n"
	}
	return out
}
