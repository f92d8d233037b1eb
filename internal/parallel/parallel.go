// Package parallel is the one concurrency layer of the solver core and
// the executors: a bounded worker pool with deterministic work
// splitting and a deterministic per-worker seed derivation.
//
// ForEach obeys three contracts the solvers rely on:
//
//  1. Serial fallback — workers <= 1 (after clamping to n) runs the work
//     inline on the calling goroutine, byte-for-byte reproducing the
//     pre-parallel code path.
//  2. Determinism — results depend only on the inputs (and, where
//     randomness is involved, on the (seed, workers) pair), never on
//     goroutine interleaving. ForEach achieves this by having every
//     index own its output slot; ChunkRanges by splitting the index
//     space into contiguous, order-mergeable blocks that callers hand
//     to ForEach one chunk per index.
//  3. Nil hooks cost nothing — a nil *obs.Pool records nothing and
//     reads no clock, and a nil *cancel.Token never fails.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/obs"
)

// SeedStride is the golden-ratio constant of the seed-splitting contract:
// worker w of a pool seeded with base seed s owns the RNG stream seeded
// SplitSeed(s, w) = s + w*SeedStride. The stride keeps the per-worker
// streams far apart in seed space while remaining a pure function of
// (seed, worker index).
const SeedStride = 0x9e3779b9

// SplitSeed derives the deterministic seed of worker w from a base seed.
func SplitSeed(seed int64, w int) int64 {
	return seed + int64(w)*SeedStride
}

// Resolve maps a user-facing worker-count knob to a concrete pool size:
// values <= 0 select GOMAXPROCS, everything else passes through.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// clamp bounds a resolved worker count by the number of available tasks
// (never returning less than 1), so pools do not spawn idle goroutines.
func clamp(workers, tasks int) int {
	if workers > tasks {
		workers = tasks
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) across at most workers
// goroutines and waits for completion. Indices are handed out through an
// atomic counter; fn must confine its writes to state owned by index i
// (e.g. out[i]) so the result is independent of scheduling. workers <= 1
// (after clamping to n) runs serially on the calling goroutine.
//
// p, when non-nil, records one launch plus each worker's index count and
// busy wall time (the serial fallback reports as slot 0). The accounting
// is write-only, so nothing in the work distribution depends on it.
//
// tok, when non-nil, is checked before every index on the serial path
// and before every claim on the pooled path. Once it trips, workers stop
// handing out indices and the first checkpoint error is returned.
// Claimed indices run to completion (fn is never interrupted mid-task),
// so on a nil error every index in [0, n) ran exactly once; on a non-nil
// error the caller must discard the partial output.
//
// A panic in fn reaches the caller on both paths. The serial path lets
// it unwind as usual. On the pooled path it stops the hand-out of
// indices, the other workers finish the indices they already claimed,
// and ForEach re-panics on the calling goroutine with a *Panic holding
// the first value and the stack of the worker that raised it, so a
// caller that recovers sees it instead of the process dying.
func ForEach(p *obs.Pool, tok *cancel.Token, workers, n int, fn func(i int)) error {
	p.Launched()
	workers = clamp(workers, n)
	if workers <= 1 {
		var start time.Time
		if p != nil {
			start = time.Now()
		}
		i := 0
		var err error
		for ; i < n; i++ {
			if err = tok.Check(); err != nil {
				break
			}
			fn(i)
		}
		if p != nil {
			p.Observe(0, int64(i), time.Since(start))
		}
		return err
	}
	var next atomic.Int64
	var firstErr atomic.Pointer[error]
	var firstPanic atomic.Pointer[Panic]
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					firstPanic.CompareAndSwap(nil, &Panic{Value: v, Stack: debug.Stack()})
				}
			}()
			var start time.Time
			if p != nil {
				start = time.Now()
			}
			var done int64
			var err error
			for firstPanic.Load() == nil {
				if err = tok.Check(); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					break
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				fn(i)
				done++
			}
			if p != nil {
				p.Observe(w, done, time.Since(start))
			}
		}(w)
	}
	wg.Wait()
	if pv := firstPanic.Load(); pv != nil {
		panic(pv)
	}
	if ep := firstErr.Load(); ep != nil {
		return *ep
	}
	return nil
}

// Panic is the value ForEach re-panics with when fn panicked on a pool
// worker: the worker's panic value and its stack, which the calling
// goroutine's own stack does not show.
type Panic struct {
	Value any
	Stack []byte
}

func (p *Panic) Error() string {
	return fmt.Sprintf("%v [recovered from a parallel.ForEach worker]\n\n%s", p.Value, p.Stack)
}

// Range is a contiguous index block [Lo, Hi).
type Range struct{ Lo, Hi int }

// ChunkRanges splits [0, n) into at most workers contiguous ranges of
// near-equal size (the first n%workers ranges are one longer). The split
// is a pure function of (n, workers): solvers that reduce a per-chunk
// "local best" in ascending chunk order therefore reproduce the serial
// scan exactly.
func ChunkRanges(workers, n int) []Range {
	workers = clamp(workers, n)
	per, extra := n/workers, n%workers
	out := make([]Range, 0, workers)
	lo := 0
	for w := 0; w < workers; w++ {
		size := per
		if w < extra {
			size++
		}
		out = append(out, Range{lo, lo + size})
		lo += size
	}
	return out
}

// SplitCounts divides total work items across workers the way the worker
// pools do: near-equal shares, the first total%workers workers taking one
// extra. Callers that fan out one share per ForEach index (the Monte
// Carlo evaluation) size their pool with it, and reports use it to
// attribute per-worker shares without re-deriving the split.
func SplitCounts(total, workers int) []int {
	workers = clamp(workers, total)
	per, extra := total/workers, total%workers
	out := make([]int, workers)
	for w := range out {
		out[w] = per
		if w < extra {
			out[w]++
		}
	}
	return out
}
