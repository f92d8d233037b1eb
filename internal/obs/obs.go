// Package obs is the solver-wide observability layer: a metrics registry
// (counters, gauges, rolling windows), hierarchical phase spans,
// worker-pool utilization accounting, and exporters (human summary,
// stable JSON run report, expvar map). It depends only on the standard
// library.
//
// Two contracts every instrumented package relies on (see DESIGN.md
// "Observability"):
//
//  1. Zero overhead when disabled — the nil *Recorder is the disabled
//     default. Every method of Recorder, Span, Counter, Gauge, Rolling
//     and Pool is nil-safe and allocation-free on a nil receiver, so hot
//     paths carry instrumentation unconditionally. Guarded by the
//     AllocsPerRun test in this package.
//  2. Schedule invariance — recording is strictly write-only from the
//     solver's point of view: no planner ever reads a metric back, so
//     planned schedules are byte-identical with observability enabled or
//     disabled. Guarded by the determinism test in internal/core.
//
// Counters and gauges are safe for concurrent use (atomics). Spans form
// a tree through explicit scopes: a Recorder is a handle on one run plus
// the span its phases open under, and (*Span).Recorder is the handle
// for that span's children. A stage whose phase covers later stages
// hands them its span's handle, so the tree follows the call structure
// whatever goroutine a phase runs on, and concurrent Schedule calls
// sharing one recorder each get their own subtree (their top-level
// phases become siblings under the root).
package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is a handle on one run's metric sink, scoped to the span its
// phases open under. Every handle on a run shares its metrics and phase
// tree. The nil Recorder is the disabled default: every method no-ops.
// Create an enabled one with New.
type Recorder struct {
	*run
	scope *Span
}

// run is the state every handle on one run shares.
type run struct {
	mu    sync.Mutex
	clock func() time.Time
	root  *Span

	counters sync.Map // string -> *Counter
	gauges   sync.Map // string -> *Gauge
	pools    sync.Map // string -> *Pool
	rollings sync.Map // string -> *Rolling
}

// New returns an enabled recorder scoped to its run's implicit root
// span, which starts now.
func New() *Recorder {
	rn := &run{clock: time.Now}
	rn.root = &Span{run: rn, name: "run", start: rn.clock()}
	return rn.root.Recorder()
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetClock replaces the time source (tests pin reports with a fake
// monotonic clock). Must be called before any span starts besides the
// root, whose start time is rewritten.
func (r *Recorder) SetClock(clock func() time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = clock
	r.root.start = clock()
	r.mu.Unlock()
}

// now returns the run's current time; callers hold mu or accept the
// benign race on clock replacement (SetClock is test-only setup).
func (r *run) now() time.Time { return r.clock() }

// Counter is a monotonically increasing event count. The nil Counter
// (from a nil Recorder) discards writes.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil recorder; hot paths fetch the handle once per run and use
// the nil-safe Inc/Add in loops.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if v, ok := r.counters.Load(name); ok {
		return v.(*Counter)
	}
	v, _ := r.counters.LoadOrStore(name, new(Counter))
	return v.(*Counter)
}

// Gauge is a last-write-wins float value (sizes, rates, configuration).
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge returns the named gauge, creating it on first use (nil on a nil
// recorder).
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	if v, ok := r.gauges.Load(name); ok {
		return v.(*Gauge)
	}
	v, _ := r.gauges.LoadOrStore(name, new(Gauge))
	return v.(*Gauge)
}

// RecordCache samples a cache's absolute hit/miss/size triple into the
// conventional gauges cache.<name>.hits / .misses / .size; the report
// derives cache.<name>.hit_rate from them. Idempotent — call it again
// whenever fresher numbers are available.
func (r *Recorder) RecordCache(name string, hits, misses, size int64) {
	if r == nil {
		return
	}
	r.Gauge("cache." + name + ".hits").Set(float64(hits))
	r.Gauge("cache." + name + ".misses").Set(float64(misses))
	r.Gauge("cache." + name + ".size").Set(float64(size))
}
