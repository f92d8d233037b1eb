// Package exact solves small TMEDB-S instances optimally by Dijkstra
// over (time-index, informed-set) states. It exists to validate the
// approximation pipeline: Theorem 5.2 plus Proposition 6.1 restrict the
// search to DTS transmission times and DCS power levels, which makes the
// state space finite — O(|global times| · 2^N) states — and exact search
// tractable for N up to ~16.
//
// The solver handles the static channel (deterministic coverage) with
// τ = 0, the regime of the paper's trace-driven evaluation.
package exact

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/dts"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// MaxNodes bounds the instance size (2^N states per time index).
const MaxNodes = 16

// Solve finds a minimum-cost feasible schedule for the TMEDB-S instance
// (static channel, τ = 0) from src over the window [t0, deadline]. It
// returns ErrUnreachable when some node cannot be informed in the
// window.
func Solve(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, float64, error) {
	if g.Model.Fading() {
		return nil, 0, fmt.Errorf("exact: only the static channel model is supported")
	}
	if g.Tau() != 0 {
		return nil, 0, fmt.Errorf("exact: only τ = 0 is supported")
	}
	if g.N() > MaxNodes {
		return nil, 0, fmt.Errorf("exact: %d nodes exceeds the %d-node limit", g.N(), MaxNodes)
	}

	// An uncancellable build (no token in the options) never errors.
	d, _ := dts.Build(g.Graph, t0, deadline, dts.Options{})
	// Global candidate transmission times: the union of all nodes' DTS
	// points (already pruned to degree > 0 plus window endpoints).
	timeSet := map[float64]bool{}
	for i := 0; i < g.N(); i++ {
		for _, t := range d.Points[i] {
			timeSet[t] = true
		}
	}
	times := make([]float64, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Float64s(times)

	// Precompute, per (time, relay), the DCS levels and their coverage
	// masks.
	type action struct {
		relay tvg.NodeID
		t     float64
		w     float64
		mask  uint32 // nodes covered by this level
	}
	actions := make([][]action, len(times))
	for ti, t := range times {
		for i := 0; i < g.N(); i++ {
			var cum uint32
			for _, lvl := range g.DCS(tvg.NodeID(i), t) {
				cum |= 1 << uint(lvl.Node)
				actions[ti] = append(actions[ti], action{
					relay: tvg.NodeID(i), t: t, w: lvl.W, mask: cum,
				})
			}
		}
	}

	full := uint32(1)<<uint(g.N()) - 1
	start := state{0, uint32(1) << uint(src)}

	// Dijkstra over states ordered by accumulated cost.
	distMap := map[state]float64{start: 0}
	prev := map[state]step{}
	pq := &stateQueue{{start, 0}}
	for pq.Len() > 0 {
		cur := heap.Pop(pq).(stateItem)
		if cur.cost > distMap[cur.st] {
			continue
		}
		if cur.st.mask == full {
			return reconstruct(prev, cur.st), cur.cost, nil
		}
		// advance time
		if int(cur.st.timeIdx)+1 < len(times) {
			next := state{cur.st.timeIdx + 1, cur.st.mask}
			relax(distMap, prev, pq, next, cur.cost, step{from: cur.st})
		}
		// transmit: any informed relay, any level, at the current time
		for _, a := range actions[cur.st.timeIdx] {
			if cur.st.mask&(1<<uint(a.relay)) == 0 {
				continue // relay uninformed
			}
			add := a.mask &^ cur.st.mask
			if add == 0 {
				continue // informs no one new: never useful in an optimum
			}
			next := state{cur.st.timeIdx, cur.st.mask | add}
			relax(distMap, prev, pq, next, cur.cost+a.w, step{
				from: cur.st,
				tx:   &schedule.Transmission{Relay: a.relay, T: a.t, W: a.w},
			})
		}
	}
	return nil, 0, ErrUnreachable
}

// ErrUnreachable reports that no feasible schedule exists in the window.
var ErrUnreachable = fmt.Errorf("exact: no feasible schedule within the window")

type state struct {
	timeIdx int32
	mask    uint32
}

type step struct {
	from state
	tx   *schedule.Transmission
}

type stateItem struct {
	st   state
	cost float64
}

type stateQueue []stateItem

func (q stateQueue) Len() int            { return len(q) }
func (q stateQueue) Less(i, j int) bool  { return q[i].cost < q[j].cost }
func (q stateQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *stateQueue) Push(x interface{}) { *q = append(*q, x.(stateItem)) }
func (q *stateQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func relax(dist map[state]float64, prev map[state]step, pq *stateQueue, next state, cost float64, via step) {
	if old, ok := dist[next]; ok && old <= cost {
		return
	}
	dist[next] = cost
	prev[next] = via
	heap.Push(pq, stateItem{next, cost})
}

func reconstruct(prev map[state]step, end state) schedule.Schedule {
	var s schedule.Schedule
	cur := end
	for {
		via, ok := prev[cur]
		if !ok {
			break
		}
		if via.tx != nil {
			s = append(s, *via.tx)
		}
		cur = via.from
	}
	// reverse into chronological (and causal) order
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}
