package obs

import (
	"context"
	"testing"
	"time"
)

// TestAllocsPerRunDisabledHotPaths pins the zero-overhead-when-disabled
// contract: every operation an instrumented hot path performs against
// the nil (disabled) recorder must allocate nothing. This is what lets
// dts/auxgraph/steiner/nlp/sim carry instrumentation unconditionally.
// CI runs this guard with -count=3 (see .github/workflows/ci.yml, job
// "obs overhead").
func TestAllocsPerRunDisabledHotPaths(t *testing.T) {
	var r *Recorder
	var c *Counter
	var g *Gauge
	var p *Pool
	allocs := testing.AllocsPerRun(1000, func() {
		sp := r.StartPhase("phase")
		sp.SetFloat("k", 1.0)
		sp.SetInt("n", 3)
		sp.SetStr("s", "v")
		c.Inc()
		c.Add(3)
		_ = c.Value()
		g.Set(0.5)
		p.Observe(0, 10, time.Millisecond)
		p.Launched()
		r.Counter("x").Inc()
		r.Gauge("y").Set(1)
		r.Pool("z").Observe(1, 1, 0)
		r.RecordCache("memo", 1, 2, 3)
		sp.Recorder().StartPhase("child").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsPerRunDisabledTelemetry extends the same contract to the
// serving-tier telemetry added for the daemon: the nil Logger, Rolling
// window, and Flight recorder must be free when disabled, and fetching
// the absent logger from a context must not allocate. The variadic
// attrs stay on the caller's stack because Event/Error only range over
// them.
func TestAllocsPerRunDisabledTelemetry(t *testing.T) {
	var l *Logger
	var ro *Rolling
	var f *Flight
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		l.Event("solve.done", Str("rung", "full"), I("shed", 0), F64("ms", 1.5))
		l.Error("solve.failed", nil, Str("kind", "none"))
		_ = l.Enabled()
		_ = LoggerFrom(ctx)
		_ = WithLogger(ctx, nil)
		ro.Observe(1.5)
		f.Record(RequestRecord{Status: 200})
		_ = f.Cap()
	})
	if allocs != 0 {
		t.Fatalf("disabled telemetry allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestAllocsPerRunEnabledCounterSteadyState checks the enabled counter
// fast path too: once the handle exists, Inc/Add/Set allocate nothing,
// so per-event costs stay flat even with observability on.
func TestAllocsPerRunEnabledCounterSteadyState(t *testing.T) {
	r := New()
	c := r.Counter("ops")
	g := r.Gauge("ratio")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(0.5)
	})
	if allocs != 0 {
		t.Fatalf("enabled steady-state instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}
