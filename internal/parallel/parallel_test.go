package parallel

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cancel"
	"repro/internal/obs"
)

func TestSplitSeedContract(t *testing.T) {
	if SplitSeed(5, 0) != 5 {
		t.Errorf("worker 0 must own the base seed, got %d", SplitSeed(5, 0))
	}
	if got, want := SplitSeed(7, 3), int64(7+3*0x9e3779b9); got != want {
		t.Errorf("SplitSeed(7,3) = %d, want %d", got, want)
	}
}

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Resolve(5); got != 5 {
		t.Errorf("Resolve(5) = %d", got)
	}
}

// liveToken returns a token that never trips.
func liveToken(t *testing.T) *cancel.Token {
	ctx, cancelFn := context.WithCancel(context.Background())
	t.Cleanup(cancelFn)
	return cancel.FromContext(ctx)
}

// TestForEachCoversEveryIndexOnce runs every hook combination at every
// width: each index must run exactly once.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		for _, hooks := range []struct {
			p   *obs.Pool
			tok *cancel.Token
		}{{nil, nil}, {obs.New().Pool("p"), nil}, {nil, liveToken(t)}, {obs.New().Pool("p"), liveToken(t)}} {
			const n = 137
			var hits [n]atomic.Int64
			if err := ForEach(hooks.p, hooks.tok, workers, n, func(i int) { hits[i].Add(1) }); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d pool=%v tok=%v: index %d hit %d times", workers, hooks.p != nil, hooks.tok != nil, i, h)
				}
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -1} {
		called := false
		if err := ForEach(obs.New().Pool("p"), liveToken(t), 4, n, func(int) { called = true }); err != nil {
			t.Fatal(err)
		}
		if called {
			t.Errorf("ForEach called fn for n=%d", n)
		}
	}
}

// TestAllocsPerRunSerialForEach pins the serial path with nil hooks at
// zero allocations: a one-worker solve pays nothing for the pool.
func TestAllocsPerRunSerialForEach(t *testing.T) {
	out := make([]int, 64)
	fn := func(i int) { out[i] = i }
	if allocs := testing.AllocsPerRun(100, func() { _ = ForEach(nil, nil, 1, len(out), fn) }); allocs != 0 {
		t.Fatalf("serial ForEach allocates %v per run, want 0", allocs)
	}
}

func TestChunkRangesPartition(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 10}, {3, 10}, {4, 4}, {8, 3}, {5, 0}, {16, 1000},
	} {
		ranges := ChunkRanges(tc.workers, tc.n)
		next := 0
		for _, r := range ranges {
			if r.Lo != next {
				t.Fatalf("workers=%d n=%d: gap at %d (range %+v)", tc.workers, tc.n, next, r)
			}
			if r.Hi < r.Lo {
				t.Fatalf("workers=%d n=%d: inverted range %+v", tc.workers, tc.n, r)
			}
			next = r.Hi
		}
		if tc.n > 0 && next != tc.n {
			t.Fatalf("workers=%d n=%d: ranges end at %d", tc.workers, tc.n, next)
		}
		if len(ranges) > tc.workers && tc.workers >= 1 {
			t.Fatalf("workers=%d n=%d: %d ranges", tc.workers, tc.n, len(ranges))
		}
	}
}

// TestForEachRangeMatchesForEach runs ForEach over ChunkRanges chunks,
// one chunk per index, and expects the per-index result.
func TestForEachRangeMatchesForEach(t *testing.T) {
	n := 53
	want := make([]int, n)
	_ = ForEach(nil, nil, 1, n, func(i int) { want[i] = i * i })
	got := make([]int, n)
	ranges := ChunkRanges(7, n)
	_ = ForEach(nil, nil, 7, len(ranges), func(c int) {
		for i := ranges[c].Lo; i < ranges[c].Hi; i++ {
			got[i] = i * i
		}
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestSplitCounts(t *testing.T) {
	counts := SplitCounts(10, 4)
	if len(counts) != 4 {
		t.Fatalf("len = %d", len(counts))
	}
	total := 0
	for w, c := range counts {
		total += c
		if w > 0 && counts[w-1] < c {
			t.Errorf("counts not front-loaded: %v", counts)
		}
	}
	if total != 10 {
		t.Errorf("counts sum to %d, want 10", total)
	}
	// more workers than items clamps
	if got := SplitCounts(3, 16); len(got) != 3 {
		t.Errorf("SplitCounts(3,16) = %v", got)
	}
}

func TestChunkRangesZeroTasks(t *testing.T) {
	ranges := ChunkRanges(4, 0)
	if len(ranges) != 1 || ranges[0] != (Range{0, 0}) {
		t.Fatalf("ChunkRanges(4,0) = %v, want one empty range", ranges)
	}
}

func TestChunkRangesMoreWorkersThanTasks(t *testing.T) {
	ranges := ChunkRanges(8, 3)
	if len(ranges) != 3 {
		t.Fatalf("ChunkRanges(8,3) produced %d ranges, want clamp to 3", len(ranges))
	}
	for i, r := range ranges {
		if r.Hi-r.Lo != 1 {
			t.Fatalf("range %d = %+v, want width 1", i, r)
		}
	}
}

func TestChunkRangesZeroWorkersResolves(t *testing.T) {
	// workers <= 0 means "use GOMAXPROCS" at the Resolve layer; ChunkRanges
	// itself clamps to at least one range so callers that skip Resolve
	// still get a valid partition.
	ranges := ChunkRanges(0, 10)
	if len(ranges) != 1 || ranges[0] != (Range{0, 10}) {
		t.Fatalf("ChunkRanges(0,10) = %v, want single full range", ranges)
	}
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Resolve(0) = %d, want GOMAXPROCS", got)
	}
}

func TestSplitCountsZeroTasks(t *testing.T) {
	counts := SplitCounts(0, 4)
	if len(counts) != 1 || counts[0] != 0 {
		t.Fatalf("SplitCounts(0,4) = %v, want [0]", counts)
	}
}

func TestSplitCountsMoreWorkersThanTasks(t *testing.T) {
	counts := SplitCounts(3, 8)
	if len(counts) != 3 {
		t.Fatalf("SplitCounts(3,8) = %v, want clamp to 3 workers", counts)
	}
	for w, c := range counts {
		if c != 1 {
			t.Fatalf("worker %d share = %d, want 1", w, c)
		}
	}
}

func TestSplitCountsZeroWorkers(t *testing.T) {
	counts := SplitCounts(10, 0)
	if len(counts) != 1 || counts[0] != 10 {
		t.Fatalf("SplitCounts(10,0) = %v, want [10]", counts)
	}
}

// poolReport returns the named pool's report from r.
func poolReport(t *testing.T, r *obs.Recorder, name string) obs.PoolReport {
	t.Helper()
	for _, pr := range r.Snapshot(nil).Pools {
		if pr.Name == name {
			return pr
		}
	}
	t.Fatalf("pool %q missing from report", name)
	return obs.PoolReport{}
}

// TestForEachPoolNilDelegates: a nil pool takes the unrecorded path and
// still runs every index exactly once.
func TestForEachPoolNilDelegates(t *testing.T) {
	var hits [50]atomic.Int64
	if err := ForEach(nil, nil, 4, len(hits), func(i int) { hits[i].Add(1) }); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
}

func TestForEachPoolAccountsTasksAndBusyTime(t *testing.T) {
	r := obs.New()
	p := r.Pool("test")
	const n = 64
	var hits [n]atomic.Int64
	if err := ForEach(p, nil, 4, n, func(i int) {
		hits[i].Add(1)
		time.Sleep(time.Microsecond)
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d hit %d times", i, hits[i].Load())
		}
	}
	pr := poolReport(t, r, "test")
	if pr.Runs != 1 {
		t.Errorf("runs = %d, want 1", pr.Runs)
	}
	if pr.Tasks != n {
		t.Errorf("tasks = %d, want %d", pr.Tasks, n)
	}
	if pr.Workers != 4 {
		t.Errorf("workers = %d, want 4", pr.Workers)
	}
	var total float64
	for _, b := range pr.BusyMS {
		total += b
	}
	if total <= 0 {
		t.Errorf("total busy time = %g ms, want > 0", total)
	}
}

func TestForEachPoolSerialFallbackReportsSlotZero(t *testing.T) {
	r := obs.New()
	_ = ForEach(r.Pool("serial"), nil, 1, 10, func(int) {})
	if pr := poolReport(t, r, "serial"); pr.Workers != 1 || pr.Tasks != 10 || pr.Runs != 1 || len(pr.BusyMS) != 1 {
		t.Fatalf("serial pool report = %+v, want workers=1 tasks=10 runs=1 and one busy slot", pr)
	}
}

// TestForEachRangePoolAccountsPerChunk: ForEach over ChunkRanges counts
// one task per chunk handed out, not one per index inside it.
func TestForEachRangePoolAccountsPerChunk(t *testing.T) {
	r := obs.New()
	ranges := ChunkRanges(3, 10)
	var sum atomic.Int64
	_ = ForEach(r.Pool("ranges"), nil, 3, len(ranges), func(c int) {
		for i := ranges[c].Lo; i < ranges[c].Hi; i++ {
			sum.Add(int64(i))
		}
	})
	if sum.Load() != 45 {
		t.Fatalf("sum = %d, want 45", sum.Load())
	}
	if pr := poolReport(t, r, "ranges"); pr.Tasks != 3 || pr.Workers != 3 {
		t.Fatalf("ranges pool report = %+v, want tasks=3 workers=3", pr)
	}
}

func TestForEachNilTokenMatchesLiveToken(t *testing.T) {
	const n = 100
	want := make([]int, n)
	if err := ForEach(nil, liveToken(t), 4, n, func(i int) { want[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	got := make([]int, n)
	if err := ForEach(nil, nil, 4, n, func(i int) { got[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: got %d want %d", i, got[i], want[i])
		}
	}
}

func TestForEachPoolCancelCompletesWithLiveToken(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(nil, liveToken(t), 4, 50, func(i int) { sum.Add(int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 50*49/2 {
		t.Fatalf("sum = %d, want %d", sum.Load(), 50*49/2)
	}
}

// TestForEachPoolCancelStopsMidPool trips the token partway through a
// large pool run and asserts (a) the typed error surfaces, (b) far
// fewer than n tasks ran, and (c) no worker goroutines leak.
func TestForEachPoolCancelStopsMidPool(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 100000
	for _, workers := range []int{1, 4, 8} {
		tr := cancel.NewTrip(32)
		tok := cancel.FromContext(cancel.WithTrip(context.Background(), tr))
		var ran atomic.Int64
		err := ForEach(nil, tok, workers, n, func(i int) { ran.Add(1) })
		if !errors.Is(err, cancel.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want ErrBudgetExceeded", workers, err)
		}
		// Every worker checks once per claim; after the trip fires each
		// worker stops at its next checkpoint, so the overrun is bounded
		// by the pool width.
		if got := ran.Load(); got > 32+int64(workers) {
			t.Fatalf("workers=%d: %d tasks ran after a 32-check budget", workers, got)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// TestForEachPoolCancelAlreadyCancelled: a token that is dead on arrival
// must prevent any task from running (serial and parallel paths).
func TestForEachPoolCancelAlreadyCancelled(t *testing.T) {
	ctx, cancelFn := context.WithCancel(context.Background())
	cancelFn()
	for _, workers := range []int{1, 4} {
		tok := cancel.FromContext(ctx)
		var ran atomic.Int64
		err := ForEach(nil, tok, workers, 100, func(i int) { ran.Add(1) })
		if !errors.Is(err, cancel.ErrCancelled) {
			t.Fatalf("workers=%d: err = %v, want ErrCancelled", workers, err)
		}
		if ran.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks ran on a dead token", workers, ran.Load())
		}
	}
}

// TestForEachPoolPanicReachesCaller: a panic on a pool worker re-panics
// on the calling goroutine as a *Panic carrying the value and the
// worker's stack.
func TestForEachPoolPanicReachesCaller(t *testing.T) {
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = ForEach(nil, nil, 3, 1000, func(i int) {
			if i == 17 {
				panic("boom at 17")
			}
		})
		return nil
	}()
	p, ok := got.(*Panic)
	if !ok {
		t.Fatalf("caller recovered %#v, want a *Panic", got)
	}
	if p.Value != "boom at 17" {
		t.Errorf("panic value %#v, want %q", p.Value, "boom at 17")
	}
	if !strings.Contains(string(p.Stack), "TestForEachPoolPanicReachesCaller") {
		t.Errorf("panic stack does not show the panicking fn:\n%s", p.Stack)
	}
	if !strings.Contains(p.Error(), "boom at 17") {
		t.Errorf("Error() = %q, want the panic value in it", p.Error())
	}
}
