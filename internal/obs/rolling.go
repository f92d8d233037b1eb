package obs

import (
	"math"
	"sync"
)

// Rolling is a rolling-window value series for SLO quantile reporting:
// it keeps the last W observations in a ring plus a cumulative
// count/sum, and the snapshot estimates quantiles over the window. A
// Rolling answers "what is p99 latency *right now*" — the window
// forgets old load regimes, which is what a latency panel wants from a
// long-running daemon.
//
// The nil Rolling (from a nil Recorder) discards writes. Observe on an
// enabled Rolling is mutex-guarded and allocation-free after
// construction; quantile estimation copies and sorts the window and
// belongs on the scrape/snapshot path, never the hot path.
type Rolling struct {
	mu  sync.Mutex
	buf []float64 // ring, capacity = window
	n   int64     // total observations ever (cumulative, for _count)
	sum float64   // cumulative sum (for _sum)
}

// defaultRollingWindow bounds quantile memory when the caller passes a
// non-positive window.
const defaultRollingWindow = 1024

// Rolling returns the named rolling window, creating it with capacity
// window on first use (later windows are ignored; first registration
// wins). Nil on a nil recorder.
func (r *Recorder) Rolling(name string, window int) *Rolling {
	if r == nil {
		return nil
	}
	if v, ok := r.rollings.Load(name); ok {
		return v.(*Rolling)
	}
	if window <= 0 {
		window = defaultRollingWindow
	}
	ro := &Rolling{buf: make([]float64, 0, window)}
	v, _ := r.rollings.LoadOrStore(name, ro)
	return v.(*Rolling)
}

// Observe records v, evicting the oldest observation once the window is
// full.
func (ro *Rolling) Observe(v float64) {
	if ro == nil {
		return
	}
	ro.mu.Lock()
	if len(ro.buf) < cap(ro.buf) {
		ro.buf = append(ro.buf, v)
	} else {
		ro.buf[ro.n%int64(cap(ro.buf))] = v
	}
	ro.n++
	ro.sum += v
	ro.mu.Unlock()
}

// quantileSorted reads quantile q from an ascending-sorted window using
// the linear-interpolation estimator (rank = q·(n−1)).
func quantileSorted(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := q * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// snapshot freezes the cumulative stats and the window copy.
func (ro *Rolling) snapshot() (n int64, sum float64, window []float64, capacity int) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.n, ro.sum, append([]float64(nil), ro.buf...), cap(ro.buf)
}

// RollingReport is one rolling window's SLO summary: cumulative
// count/sum plus p50/p90/p99 over the current window (all zero while
// empty — encoding/json rejects NaN, so the report never carries one).
type RollingReport struct {
	Name   string  `json:"name"`
	Window int     `json:"window"`
	Count  int64   `json:"count"`
	Sum    float64 `json:"sum"`
	P50    float64 `json:"p50"`
	P90    float64 `json:"p90"`
	P99    float64 `json:"p99"`
}
