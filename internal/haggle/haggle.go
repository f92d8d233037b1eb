// Package haggle handles contact traces in the style of the Haggle /
// iMote datasets the paper evaluates on (Chaintreau et al. [12]).
//
// The real Haggle trace is distribution-restricted, so the package
// provides, besides a reader/writer for the simple text format, a
// synthetic generator reproducing its first-order structure: heavy-tailed
// (truncated Pareto) inter-contact times, log-normal contact durations,
// and a node arrival ramp that makes the average degree grow early in the
// experiment and then flatten — the behaviour Fig. 7 relies on. Every
// contact carries a sampled distance so fading models can be applied.
package haggle

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sort"

	"repro/internal/interval"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Contact is one pairwise contact: nodes I < J in range during
// [Start, End) at representative distance Dist (meters).
type Contact struct {
	I, J       int
	Start, End float64
	Dist       float64
}

// Trace is a contact trace over N nodes and a time horizon.
type Trace struct {
	N        int
	Horizon  float64
	Contacts []Contact
}

// Hash returns a stable 64-bit content hash of the trace (FNV-1a over
// the node count, horizon, and every contact in order). Two traces hash
// equal exactly when their Write outputs would be semantically equal, so
// the hash identifies a trace in content-addressed caches — notably the
// tmedbd schedule cache — independent of where the trace was loaded from
// or which *Trace instance carries it.
//
// The hash is 64 bits and unkeyed: two distinct traces can collide
// (≈2⁻⁶⁴ per pair, birthday-bounded over a cache's lifetime), and FNV-1a
// is not collision-resistant against adversarial inputs. Callers for
// whom a collision would be a correctness bug — not just a wasted miss —
// should pair the hash with a cheap structural fingerprint (N, Horizon,
// contact count) rather than trust it alone, as the tmedbd cache key
// does.
func (t *Trace) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wu(uint64(t.N))
	wu(math.Float64bits(t.Horizon))
	for _, c := range t.Contacts {
		wu(uint64(c.I))
		wu(uint64(c.J))
		wu(math.Float64bits(c.Start))
		wu(math.Float64bits(c.End))
		wu(math.Float64bits(c.Dist))
	}
	return h.Sum64()
}

// Write emits the trace in the text format:
//
//	# haggle-trace v1 nodes=<N> horizon=<T>
//	<i> <j> <start> <end> <dist>
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# haggle-trace v1 nodes=%d horizon=%g\n", t.N, t.Horizon); err != nil {
		return err
	}
	for _, c := range t.Contacts {
		if _, err := fmt.Fprintf(bw, "%d %d %g %g %g\n", c.I, c.J, c.Start, c.End, c.Dist); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write. Lines starting with '#' other
// than the header are ignored; a missing distance column defaults to
// 10 m (proximity-only traces like the original Haggle dumps). A node
// count below 1, a non-finite horizon and any contact readContacts
// rejects fail the parse.
func Read(r io.Reader) (*Trace, error) {
	sc := newScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("haggle: missing header")
	}
	t := &Trace{}
	line := sc.Text()
	if n, _ := fmt.Sscanf(line, "# haggle-trace v1 nodes=%d horizon=%g", &t.N, &t.Horizon); n != 2 || t.N < 1 || !finite(t.Horizon) {
		return nil, fmt.Errorf("haggle: bad header %q", line)
	}
	var err error
	if t.Contacts, err = readContacts(sc, 1, t.N); err != nil {
		return nil, err
	}
	return t, nil
}

// newScanner returns a line scanner that takes lines of up to 16 MiB.
func newScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return sc
}

// readContacts parses the "<i> <j> <start> <end> [dist]" lines left in
// sc, whose first lineNo lines were already read, skipping blank and '#'
// lines. A missing distance defaults to 10 m, each contact is stored
// with I < J, and a pair naming one node twice, a negative id, an id at
// or above n (when n > 0) or a contact checkContact rejects fails the
// parse.
func readContacts(sc *bufio.Scanner, lineNo, n int) ([]Contact, error) {
	var out []Contact
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		var c Contact
		k, err := fmt.Sscanf(line, "%d %d %g %g %g", &c.I, &c.J, &c.Start, &c.End, &c.Dist)
		if err != nil && k < 4 {
			return nil, fmt.Errorf("haggle: line %d: %q: %v", lineNo, line, err)
		}
		if k == 4 {
			c.Dist = 10
		}
		if c.I == c.J || c.I < 0 || c.J < 0 || (n > 0 && (c.I >= n || c.J >= n)) {
			return nil, fmt.Errorf("haggle: line %d: bad pair (%d,%d)", lineNo, c.I, c.J)
		}
		if err := checkContact(lineNo, c); err != nil {
			return nil, err
		}
		if c.I > c.J {
			c.I, c.J = c.J, c.I
		}
		out = append(out, c)
	}
	return out, sc.Err()
}

// checkContact rejects a contact the graph cannot hold: a non-finite
// start or end, an empty interval, or a distance that is not finite
// and positive.
func checkContact(lineNo int, c Contact) error {
	if !finite(c.Start) || !finite(c.End) || c.End <= c.Start {
		return fmt.Errorf("haggle: line %d: empty or non-finite contact [%g,%g)", lineNo, c.Start, c.End)
	}
	if !finite(c.Dist) || c.Dist <= 0 {
		return fmt.Errorf("haggle: line %d: distance %g is not finite and positive", lineNo, c.Dist)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// GenOptions tunes the synthetic generator. Zero values take the
// defaults noted per field, which match the §VII setting.
type GenOptions struct {
	// N is the number of nodes (default 20).
	N int
	// Horizon is the trace length in seconds (default 17000, §VII).
	Horizon float64
	// MeanInterContact is the mean pairwise inter-contact gap in
	// seconds (default 4000). Gaps are truncated-Pareto distributed
	// (shape ParetoAlpha) per the Haggle analysis in [12].
	MeanInterContact float64
	// ParetoAlpha is the inter-contact tail exponent (default 1.5).
	ParetoAlpha float64
	// MeanContact is the mean contact duration in seconds (default
	// 250); durations are log-normal.
	MeanContact float64
	// RampEnd: nodes "arrive" at uniform times in [0, RampEnd] (default
	// 8000). Before both endpoints have arrived a pair's contacts are
	// thinned to KeepEarly of the full rate — the average degree ramps
	// up and then flattens, the Fig. 7 behaviour, while the early
	// network stays connected enough for broadcasts to complete.
	RampEnd float64
	// KeepEarly is the fraction of pre-arrival contacts kept (default
	// 0.15).
	KeepEarly float64
	// DistMin and DistMax bound per-contact distances in meters
	// (defaults 1 and 10 — indoor proximity).
	DistMin, DistMax float64
}

func (o *GenOptions) fill() {
	if o.N == 0 {
		o.N = 20
	}
	if o.Horizon == 0 {
		o.Horizon = 17000
	}
	if o.MeanInterContact == 0 {
		o.MeanInterContact = 4000
	}
	if o.ParetoAlpha == 0 {
		o.ParetoAlpha = 1.5
	}
	if o.MeanContact == 0 {
		o.MeanContact = 250
	}
	if o.RampEnd == 0 {
		o.RampEnd = 8000
	}
	if o.KeepEarly == 0 {
		o.KeepEarly = 0.15
	}
	if o.DistMin == 0 {
		o.DistMin = 1
	}
	if o.DistMax == 0 {
		o.DistMax = 10
	}
}

// Generate builds a synthetic Haggle-like trace, deterministic per rng.
func Generate(opts GenOptions, rng *rand.Rand) *Trace {
	opts.fill()
	t := &Trace{N: opts.N, Horizon: opts.Horizon}
	active := make([]float64, opts.N)
	for i := range active {
		active[i] = rng.Float64() * opts.RampEnd
	}
	// xm chosen so the truncated Pareto has roughly the requested mean:
	// E = xm·α/(α-1) for α > 1.
	xm := opts.MeanInterContact * (opts.ParetoAlpha - 1) / opts.ParetoAlpha
	pareto := func() float64 {
		u := rng.Float64()
		g := xm / math.Pow(1-u, 1/opts.ParetoAlpha)
		if g > opts.Horizon {
			g = opts.Horizon
		}
		return g
	}
	// log-normal with the requested mean: E = exp(μ+σ²/2); σ = 0.8
	const sigma = 0.8
	mu := math.Log(opts.MeanContact) - sigma*sigma/2
	duration := func() float64 {
		return math.Exp(mu + sigma*rng.NormFloat64())
	}
	for i := 0; i < opts.N; i++ {
		for j := i + 1; j < opts.N; j++ {
			arrival := math.Max(active[i], active[j])
			now := 0.0
			for {
				now += pareto()
				if now >= opts.Horizon {
					break
				}
				end := math.Min(now+duration(), opts.Horizon)
				dist := opts.DistMin + rng.Float64()*(opts.DistMax-opts.DistMin)
				keep := rng.Float64() // drawn unconditionally to keep the stream aligned
				if now < arrival && keep >= opts.KeepEarly {
					now = end
					continue // thinned pre-arrival contact
				}
				t.Contacts = append(t.Contacts, Contact{
					I: i, J: j, Start: now, End: end, Dist: dist,
				})
				now = end
			}
		}
	}
	sort.Slice(t.Contacts, func(a, b int) bool {
		ca, cb := t.Contacts[a], t.Contacts[b]
		if ca.Start != cb.Start {
			return ca.Start < cb.Start
		}
		if ca.I != cb.I {
			return ca.I < cb.I
		}
		return ca.J < cb.J
	})
	return t
}

// ToTVEG materializes the trace as a time-varying energy-demand graph
// with traversal time tau under the given parameters and channel model.
func (t *Trace) ToTVEG(tau float64, params tveg.Params, model tveg.Model) *tveg.Graph {
	g := tveg.New(t.N, interval.Interval{Start: 0, End: t.Horizon}, tau, params, model)
	for _, c := range t.Contacts {
		g.AddContact(tvg.NodeID(c.I), tvg.NodeID(c.J),
			interval.Interval{Start: c.Start, End: c.End}, c.Dist)
	}
	// Trace-built graphs feed the planners, which re-query identical ψ
	// costs across DTS points; memoization changes no returned bit.
	return g.EnableCostCache()
}

// Restrict returns a copy of the trace containing only the first n nodes
// (used by the N-sweep experiments of Fig. 4 and Fig. 6).
func (t *Trace) Restrict(n int) *Trace {
	if n <= 0 || n > t.N {
		panic(fmt.Sprintf("haggle: restrict to %d of %d nodes", n, t.N))
	}
	out := &Trace{N: n, Horizon: t.Horizon}
	for _, c := range t.Contacts {
		if c.I < n && c.J < n {
			out.Contacts = append(out.Contacts, c)
		}
	}
	return out
}
