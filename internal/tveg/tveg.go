// Package tveg implements time-varying energy-demand graphs
// (Definition 3.2): a deterministic TVG whose every edge carries a
// time-indexed energy-demand function. Channel state is stored as
// piecewise-constant segments aligned with contact intervals — each
// contact knows the sender-receiver distance during the contact, from
// which the cost function ψ derives either a step ED-function (static
// channel, Eq. 2, with gain h = d^{-α}) or a fading ED-function
// (Rayleigh Eq. 5, or the Rician/Nakagami extensions).
package tveg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/channel"
	"repro/internal/interval"
	"repro/internal/tvg"
)

// Model selects the channel model the ED-functions are drawn from.
type Model int

const (
	// Static is the deterministic channel of Eq. 2 (step ED-functions).
	Static Model = iota
	// RayleighFading is the fading channel of Eq. 5.
	RayleighFading
	// RicianFading is the Rician extension (footnote 1).
	RicianFading
	// NakagamiFading is the Nakagami-m extension (footnote 1).
	NakagamiFading
)

func (m Model) String() string {
	switch m {
	case Static:
		return "static"
	case RayleighFading:
		return "rayleigh"
	case RicianFading:
		return "rician"
	case NakagamiFading:
		return "nakagami"
	default:
		return fmt.Sprintf("model(%d)", int(m))
	}
}

// ParseModel is the inverse of String: it returns the model named s,
// one of "static", "rayleigh", "rician" and "nakagami".
func ParseModel(s string) (Model, error) {
	for m := Static; m <= NakagamiFading; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown model %q", s)
}

// Fading reports whether transmissions under the model are probabilistic
// (success probability < 1 at every finite cost).
func (m Model) Fading() bool { return m != Static }

// Params collects the physical-layer constants of §VII.
type Params struct {
	// N0 is the noise power density (W/Hz).
	N0 float64
	// GammaTh is the decoding threshold, linear (not dB).
	GammaTh float64
	// Alpha is the path loss exponent.
	Alpha float64
	// Eps is the acceptable error rate ε of §IV.
	Eps float64
	// WMin and WMax bound the continuous cost set W.
	WMin, WMax float64
	// RiceK is the Rice factor used by the Rician model.
	RiceK float64
	// NakagamiM is the fading figure used by the Nakagami model.
	NakagamiM float64
}

// DefaultParams returns the evaluation parameters of §VII: N0 = 4.32e-21
// W/Hz, γth = 25.9 dB, α = 2, ε = 0.01, and a generous cost range.
func DefaultParams() Params {
	return Params{
		N0:        4.32e-21,
		GammaTh:   math.Pow(10, 25.9/10),
		Alpha:     2,
		Eps:       0.01,
		WMin:      0,
		WMax:      math.Inf(1),
		RiceK:     5,
		NakagamiM: 2,
	}
}

// NoiseGamma returns N0·γth, the numerator of every minimum-cost formula.
func (p Params) NoiseGamma() float64 { return p.N0 * p.GammaTh }

// Segment is one piecewise-constant stretch of channel state on an edge:
// during Iv, the sender-receiver distance is Dist.
type Segment struct {
	Iv   interval.Interval
	Dist float64
}

// Graph is a TVEG: a TVG plus per-edge channel segments and a channel
// model. It embeds the underlying TVG, so all topology queries (ρ, ρ_τ,
// partitions, journeys) are available directly.
type Graph struct {
	*tvg.Graph
	Params Params
	Model  Model
	segs   map[tvg.EdgeKey][]Segment
	// cache holds the cost-set timelines; nil = disabled. Shared (by
	// pointer) with every WithModel view. See EnableCostCache.
	cache *costCache
}

// New creates an empty TVEG over the span with traversal time tau.
func New(n int, span interval.Interval, tau float64, params Params, model Model) *Graph {
	return &Graph{
		Graph:  tvg.New(n, span, tau),
		Params: params,
		Model:  model,
		segs:   make(map[tvg.EdgeKey][]Segment),
	}
}

// WithModel returns a read-only view of the graph under a different
// channel model, sharing all topology and channel segments. The
// non-fading-aware algorithms plan on a Static view of a fading graph —
// exactly the mismatch §VII's Fig. 6 measures.
func (g *Graph) WithModel(m Model) *Graph {
	view := *g
	view.Model = m
	return &view
}

// AddContact records a contact between i and j during iv at distance
// dist. The presence function and the channel segments are updated
// together; ψ is piecewise constant over each contact.
func (g *Graph) AddContact(i, j tvg.NodeID, iv interval.Interval, dist float64) {
	if !(dist > 0) {
		panic(fmt.Sprintf("tveg: distance %g is not positive", dist))
	}
	if iv.Empty() {
		return
	}
	g.Graph.AddContact(i, j, iv)
	k := tvg.MakeEdgeKey(i, j)
	g.segs[k] = append(g.segs[k], Segment{iv, dist})
	// Stable: equal-start segments keep insertion order, so replaying an
	// edit sequence on a fresh graph reconstructs identical channel state.
	sort.SliceStable(g.segs[k], func(a, b int) bool { return g.segs[k][a].Iv.Start < g.segs[k][b].Iv.Start })
	if g.cache != nil {
		// A new contact only changes ρ_τ, segments, and cost sets at its
		// own endpoints; every other timeline stays valid.
		g.cache.invalidatePair(i, j)
	}
}

// SegmentAt returns the channel segment of edge (i, j) covering time t.
func (g *Graph) SegmentAt(i, j tvg.NodeID, t float64) (Segment, bool) {
	for _, s := range g.segs[tvg.MakeEdgeKey(i, j)] {
		if s.Iv.Contains(t) {
			return s, true
		}
	}
	return Segment{}, false
}

// Beta returns β_{i,j,t} = N0·γth·d^α (Eq. 5's constant) for the contact
// covering t, or +Inf when the edge is absent at t.
func (g *Graph) Beta(i, j tvg.NodeID, t float64) float64 {
	s, ok := g.SegmentAt(i, j, t)
	if !ok {
		return math.Inf(1)
	}
	return g.Params.NoiseGamma() * math.Pow(s.Dist, g.Params.Alpha)
}

// EDAt evaluates the cost function ψ(e_{i,j}, t): the ED-function
// embedded on the edge at time t under the graph's channel model.
func (g *Graph) EDAt(i, j tvg.NodeID, t float64) channel.EDFunction {
	if !g.RhoTau(i, j, t) {
		return channel.Absent{}
	}
	beta := g.Beta(i, j, t)
	if math.IsInf(beta, 1) {
		return channel.Absent{}
	}
	switch g.Model {
	case Static:
		// Gain h = d^{-α}, so the step threshold N0·γth/h = β.
		return channel.Step{Threshold: beta}
	case RayleighFading:
		return channel.Rayleigh{Beta: beta}
	case RicianFading:
		return channel.Rician{K: g.Params.RiceK, Beta: beta}
	case NakagamiFading:
		return channel.Nakagami{M: g.Params.NakagamiM, Beta: beta}
	default:
		panic(fmt.Sprintf("tveg: unknown model %v", g.Model))
	}
}

// MinCost returns the smallest cost at which a transmission i→j at time t
// satisfies the per-hop error rate ε: the step threshold for static
// channels, or the w0 of §VI-B (φ(w0) = ε) for fading channels. +Inf
// when the edge is absent. With the cost cache enabled it reads j's
// entry of i's cost set at t.
func (g *Graph) MinCost(i, j tvg.NodeID, t float64) float64 {
	if c := g.cache; c != nil {
		for _, lvl := range c.costSet(g, i, t, &c.minCostHits, &c.minCostMisses) {
			if lvl.Node == j {
				return lvl.W
			}
		}
		return math.Inf(1)
	}
	return g.minCostUncached(i, j, t)
}

func (g *Graph) minCostUncached(i, j tvg.NodeID, t float64) float64 {
	ed := g.EDAt(i, j, t)
	if _, absent := ed.(channel.Absent); absent {
		return math.Inf(1)
	}
	var w float64
	if g.cache != nil && (g.Model == RicianFading || g.Model == NakagamiFading) {
		// Only these two invert by bisection; Step and Rayleigh are
		// closed forms.
		w = g.cache.edMemo.MinCost(ed, g.Params.Eps)
	} else {
		w = ed.MinCost(g.Params.Eps)
	}
	if w < g.Params.WMin {
		w = g.Params.WMin
	}
	if w > g.Params.WMax {
		return math.Inf(1) // unreachable within the cost set W
	}
	return w
}

// CostLevel is one entry of a node's discrete cost set: transmitting at
// cost W reaches Node (and, by the broadcast nature of Property 6.1,
// every node with a smaller level).
type CostLevel struct {
	W    float64
	Node tvg.NodeID
}

// DCS returns the discrete cost set W_{i,t}^di of §VI-A: the minimum
// costs to each node adjacent to i at time t, sorted ascending.
// Transmitting at level k's cost informs the nodes of levels 1..k.
// When the cost cache is enabled the returned slice may be shared with
// other callers and must not be modified.
func (g *Graph) DCS(i tvg.NodeID, t float64) []CostLevel {
	if c := g.cache; c != nil {
		return c.costSet(g, i, t, &c.dcsHits, &c.dcsMisses)
	}
	return g.dcsUncached(i, t)
}

func (g *Graph) dcsUncached(i tvg.NodeID, t float64) []CostLevel {
	var out []CostLevel
	for _, j := range g.EverNeighbors(i) {
		w := g.minCostUncached(i, j, t)
		if !math.IsInf(w, 1) {
			out = append(out, CostLevel{w, j})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].W != out[b].W {
			return out[a].W < out[b].W
		}
		return out[a].Node < out[b].Node
	})
	return out
}

// CoveredBy returns the nodes informed when i broadcasts at cost w at
// time t: every adjacent node whose minimum cost is <= w.
func (g *Graph) CoveredBy(i tvg.NodeID, t, w float64) []tvg.NodeID {
	var out []tvg.NodeID
	for _, lvl := range g.DCS(i, t) {
		if lvl.W <= w {
			out = append(out, lvl.Node)
		}
	}
	return out
}
