package core

import (
	"math"
	"sort"

	"repro/internal/dts"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// normalizeET applies the ET-law (Proposition 5.1) to a schedule on the
// planner view: each transmission moves to its earliest equivalent time —
// max(relay's informed time, start of the adjacency interval containing
// the original time). Within one adjacency interval the relay's neighbor
// set and every link's contact are constant (P_i^ad breaks at contact
// changes too, tvg.Graph.ChangePoints), so coverage and sufficiency are
// preserved. When collapse is true (the wireless
// broadcast advantage holds), transmissions that land on the same
// (relay, time) merge into one at the maximum cost.
//
// Moving transmissions earlier can only help feasibility, and it removes
// the redundant "same interval, different time copy" transmissions that
// tie-broken Steiner paths occasionally produce.
func normalizeET(view *tveg.Graph, s schedule.Schedule, src tvg.NodeID, t0 float64, collapse bool) schedule.Schedule {
	if len(s) == 0 {
		return s
	}
	out := make(schedule.Schedule, len(s))
	copy(out, s)
	for pass := 0; pass < 4; pass++ {
		out = causalSort(view, out, src, t0)
		informed := deterministicInformedTimes(view, out, src, t0)
		changed := false
		for k := range out {
			x := &out[k]
			inf := informed[x.Relay]
			if math.IsInf(inf, 1) {
				continue // uninformed relay (best-effort leftovers): leave as is
			}
			et := dts.EarliestTransmissionTime(view.Graph, x.Relay, inf, x.T)
			if et < x.T-1e-12 {
				x.T = et
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if !collapse {
		return causalSort(view, out, src, t0)
	}
	type key struct {
		relay tvg.NodeID
		t     float64
	}
	best := make(map[key]float64, len(out))
	for _, x := range out {
		k := key{x.Relay, x.T}
		if x.W > best[k] {
			best[k] = x.W
		}
	}
	// Emit the merged rows in sorted key order: CausalSort's total
	// (T, Relay, W) comparator would repair any input order here, but
	// emitting deterministically keeps this function's output
	// well-defined on its own (tmedbvet detrange contract).
	keys := make([]key, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].t != keys[j].t {
			return keys[i].t < keys[j].t
		}
		return keys[i].relay < keys[j].relay
	})
	merged := make(schedule.Schedule, 0, len(keys))
	for _, k := range keys {
		merged = append(merged, schedule.Transmission{Relay: k.relay, T: k.t, W: best[k]})
	}
	return causalSort(view, merged, src, t0)
}

// causalSort delegates to schedule.CausalSort, the shared producer-side
// ordering rule (chronological; equal-time groups in causal order).
func causalSort(view *tveg.Graph, s schedule.Schedule, src tvg.NodeID, t0 float64) schedule.Schedule {
	return schedule.CausalSort(view, s, src, t0)
}

// deterministicInformedTimes propagates informed status through the
// schedule under the planner view's deterministic coverage rule: a
// transmission at cost w informs every adjacent node whose minimum cost
// at that time is <= w.
func deterministicInformedTimes(view *tveg.Graph, ordered schedule.Schedule, src tvg.NodeID, t0 float64) []float64 {
	informed := make([]float64, view.N())
	for i := range informed {
		informed[i] = math.Inf(1)
	}
	informed[src] = t0
	tau := view.Tau()
	for _, x := range ordered {
		if informed[x.Relay] > x.T {
			continue
		}
		for _, j := range view.CoveredBy(x.Relay, x.T, x.W*(1+1e-12)) {
			if t := x.T + tau; t < informed[j] {
				informed[j] = t
			}
		}
	}
	return informed
}
