package obs

import (
	"sync"
	"time"
)

// Pool accumulates worker-pool utilization for one named pool across a
// run: how many pool launches happened, how many tasks they processed,
// and how long each worker slot was busy. The nil Pool discards writes.
// Observe is called once per worker per pool launch, so a mutex (not
// atomics) keeps the per-worker slice simple.
type Pool struct {
	mu      sync.Mutex
	runs    int64
	tasks   int64
	busy    []time.Duration // per worker slot, grown on demand
	maxSeen int             // widest pool observed
}

// Pool returns the named pool accumulator, creating it on first use
// (nil on a nil recorder).
func (r *Recorder) Pool(name string) *Pool {
	if r == nil {
		return nil
	}
	if v, ok := r.pools.Load(name); ok {
		return v.(*Pool)
	}
	v, _ := r.pools.LoadOrStore(name, new(Pool))
	return v.(*Pool)
}

// Observe records that worker slot w processed tasks tasks over busy
// wall time in one pool launch. Slots index from 0; the serial fallback
// reports everything as slot 0.
func (p *Pool) Observe(w int, tasks int64, busy time.Duration) {
	if p == nil || w < 0 {
		return
	}
	p.mu.Lock()
	for len(p.busy) <= w {
		p.busy = append(p.busy, 0)
	}
	p.busy[w] += busy
	p.tasks += tasks
	if w+1 > p.maxSeen {
		p.maxSeen = w + 1
	}
	p.mu.Unlock()
}

// Launched records one pool launch (called once per parallel.ForEach
// invocation, regardless of pool width).
func (p *Pool) Launched() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.runs++
	p.mu.Unlock()
}

// snapshot returns a copy of the accumulated state.
func (p *Pool) snapshot() (runs, tasks int64, busy []time.Duration, width int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs, p.tasks, append([]time.Duration(nil), p.busy...), p.maxSeen
}
