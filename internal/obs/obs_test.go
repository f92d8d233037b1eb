package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock returns a deterministic clock advancing step per call.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(0, 0)
	return func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	sp := r.StartPhase("x")
	if sp != nil {
		t.Fatal("nil recorder returned non-nil span")
	}
	sp.SetFloat("k", 1)
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.End()
	if d := sp.Duration(); d != 0 {
		t.Fatalf("nil span duration %v", d)
	}
	r.Counter("c").Inc()
	r.Counter("c").Add(5)
	if v := r.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value %d", v)
	}
	r.Gauge("g").Set(3)
	if v := r.Gauge("g").Value(); v != 0 {
		t.Fatalf("nil gauge value %g", v)
	}
	r.Pool("p").Observe(0, 10, time.Second)
	r.Pool("p").Launched()
	r.RecordCache("memo", 1, 2, 3)
	rep := r.Snapshot(nil)
	if rep.Version != 1 || len(rep.Phases) != 0 || rep.Counters != nil {
		t.Fatalf("nil snapshot not empty: %+v", rep)
	}
}

func TestCountersGaugesHistograms(t *testing.T) {
	r := New()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("ops") != c {
		t.Fatal("Counter not idempotent per name")
	}
	r.Gauge("ratio").Set(0.25)
	if v := r.Gauge("ratio").Value(); v != 0.25 {
		t.Fatalf("gauge = %g", v)
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("shared").Value(); v != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", v)
	}
}

func TestPhaseTreeNesting(t *testing.T) {
	r := New()
	r.SetClock(fakeClock(time.Millisecond))
	outer := r.StartPhase("eedcb")
	d := outer.Recorder().StartPhase("dts")
	d.SetInt("points", 42)
	d.End()
	a := outer.Recorder().StartPhase("auxgraph")
	dcs := a.Recorder().StartPhase("dcs-construct")
	dcs.End()
	a.End()
	outer.End()
	sib := r.StartPhase("evaluate")
	sib.End()

	rep := r.Snapshot(map[string]string{"alg": "EEDCB"})
	if len(rep.Phases) != 2 {
		t.Fatalf("top-level phases = %d, want 2: %+v", len(rep.Phases), rep.Phases)
	}
	e := rep.Phases[0]
	if e.Name != "eedcb" || len(e.Children) != 2 {
		t.Fatalf("eedcb children: %+v", e)
	}
	if e.Children[0].Name != "dts" || e.Children[0].Attrs["points"] != 42.0 {
		t.Fatalf("dts phase: %+v", e.Children[0])
	}
	if e.Children[1].Name != "auxgraph" || len(e.Children[1].Children) != 1 ||
		e.Children[1].Children[0].Name != "dcs-construct" {
		t.Fatalf("auxgraph subtree: %+v", e.Children[1])
	}
	if rep.Phases[1].Name != "evaluate" {
		t.Fatalf("sibling phase: %+v", rep.Phases[1])
	}
	flat := rep.PhaseWallMS()
	for _, path := range []string{"eedcb", "eedcb/dts", "eedcb/auxgraph", "eedcb/auxgraph/dcs-construct", "evaluate"} {
		if _, ok := flat[path]; !ok {
			t.Fatalf("PhaseWallMS missing %q: %v", path, flat)
		}
	}
	if rep.Meta["alg"] != "EEDCB" {
		t.Fatalf("meta: %v", rep.Meta)
	}
	// The fake clock advances 1 ms per reading, so every duration is a
	// positive whole number of milliseconds.
	if e.WallMS <= 0 {
		t.Fatalf("eedcb wall %g", e.WallMS)
	}
}

func TestUnmatchedEndDoesNotCorruptStack(t *testing.T) {
	r := New()
	a := r.StartPhase("a")
	a.End()
	a.End() // double-end must be harmless
	b := r.StartPhase("b")
	b.End()
	rep := r.Snapshot(nil)
	if len(rep.Phases) != 2 || rep.Phases[1].Name != "b" {
		t.Fatalf("phases after double End: %+v", rep.Phases)
	}
}

func TestPoolAccounting(t *testing.T) {
	r := New()
	p := r.Pool("scan")
	p.Launched()
	p.Observe(0, 60, 3*time.Millisecond)
	p.Observe(1, 40, 2*time.Millisecond)
	p.Launched()
	p.Observe(0, 10, time.Millisecond)
	rep := r.Snapshot(nil)
	if len(rep.Pools) != 1 {
		t.Fatalf("pools: %+v", rep.Pools)
	}
	pr := rep.Pools[0]
	if pr.Runs != 2 || pr.Tasks != 110 || pr.Workers != 2 {
		t.Fatalf("pool report: %+v", pr)
	}
	if pr.BusyMS[0] != 4 || pr.BusyMS[1] != 2 {
		t.Fatalf("busy: %v", pr.BusyMS)
	}
	if pr.Balance != 0.5 {
		t.Fatalf("balance: %g", pr.Balance)
	}
}

func TestCacheHitRateDerived(t *testing.T) {
	r := New()
	r.RecordCache("mincost", 75, 25, 10)
	rep := r.Snapshot(nil)
	if rate := rep.Gauges["cache.mincost.hit_rate"]; rate != 0.75 {
		t.Fatalf("hit rate = %g, want 0.75 (gauges %v)", rate, rep.Gauges)
	}
	// Re-recording overwrites rather than accumulates.
	r.RecordCache("mincost", 100, 100, 12)
	if rate := r.Snapshot(nil).Gauges["cache.mincost.hit_rate"]; rate != 0.5 {
		t.Fatalf("re-recorded hit rate = %g", rate)
	}
}

func TestReportJSONStableShape(t *testing.T) {
	r := New()
	r.SetClock(fakeClock(time.Millisecond))
	sp := r.StartPhase("dts")
	sp.End()
	r.Counter("ops").Add(3)
	r.RecordCache("memo", 1, 1, 2)
	var buf bytes.Buffer
	if err := r.Snapshot(map[string]string{"alg": "EEDCB"}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{"version", "wall_ms", "phases", "counters", "gauges", "meta"} {
		if _, ok := decoded[key]; !ok {
			t.Fatalf("report JSON missing %q: %s", key, buf.String())
		}
	}
	if decoded["version"].(float64) != 1 {
		t.Fatalf("version: %v", decoded["version"])
	}
}

func TestHumanSummary(t *testing.T) {
	r := New()
	r.SetClock(fakeClock(time.Millisecond))
	sp := r.StartPhase("eedcb")
	inner := r.StartPhase("steiner")
	inner.End()
	sp.End()
	r.Counter("steiner.dijkstra.fwd").Add(7)
	r.Pool("scan").Observe(0, 5, time.Millisecond)
	s := r.Snapshot(nil).String()
	for _, want := range []string{"eedcb", "steiner", "steiner.dijkstra.fwd", "pool scan:"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

// TestExpvarSnapshot pins that a published recorder serves its live
// snapshot: a metric recorded after PublishExpvar shows on the next read.
func TestExpvarSnapshot(t *testing.T) {
	const name = "obs_test_snapshot"
	r := New()
	if err := r.PublishExpvar(name); err != nil {
		t.Fatal(err)
	}
	r.Counter("x").Inc()
	v, ok := expvar.Get(name).(expvar.Func)
	if !ok {
		t.Fatalf("expvar %q is %T, want expvar.Func", name, expvar.Get(name))
	}
	rep, ok := v().(Report)
	if !ok {
		t.Fatalf("expvar func returned %T", v())
	}
	if rep.Counters["x"] != 1 {
		t.Fatalf("expvar counters: %v", rep.Counters)
	}
	// expvar renders via the Var interface's String(); Func marshals the
	// value as JSON — confirm the report survives that path.
	if s := v.String(); !strings.Contains(s, "\"counters\"") {
		t.Fatalf("expvar JSON: %s", s)
	}
}

func TestPhaseDepthBounded(t *testing.T) {
	r := New()
	// Nest far more phases than the cap, each opened through its
	// parent's scope — a recursive stage opening a span per level. The
	// snapshot tree must stay bounded so JSON consumers (including
	// recursive decoders) never see unbounded nesting.
	scope := r
	for i := 0; i < 10*maxPhaseDepth; i++ {
		scope = scope.StartPhase("p").Recorder()
	}
	rep := r.Snapshot(nil)
	var depth func(p PhaseReport) int
	depth = func(p PhaseReport) int {
		max := 0
		for _, c := range p.Children {
			if d := depth(c); d > max {
				max = d
			}
		}
		return 1 + max
	}
	for _, p := range rep.Phases {
		if d := depth(p); d > maxPhaseDepth {
			t.Fatalf("phase tree depth %d exceeds cap %d", d, maxPhaseDepth)
		}
	}
	// The chain reaches the cap, and the phases past it restart under
	// the root instead of being dropped.
	if d := depth(rep.Phases[0]); d != maxPhaseDepth {
		t.Fatalf("first chain depth %d, want the cap %d", d, maxPhaseDepth)
	}
	if got, want := len(rep.Phases), 10; got != want {
		t.Fatalf("top-level phases = %d, want %d", got, want)
	}
}

// TestConcurrentPhaseIsolation pins explicit scopes under concurrency:
// goroutines interleaving planner-style phase trees on one recorder must
// produce independent top-level subtrees, never splice one call's spans
// under another's open phase (the duplicated eedcb→dts→eedcb nesting
// that would corrupt concurrent sweep reports' attribution).
func TestConcurrentPhaseIsolation(t *testing.T) {
	r := New()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				outer := r.StartPhase("eedcb")
				d := outer.Recorder().StartPhase("dts")
				d.End()
				a := outer.Recorder().StartPhase("auxgraph")
				dcs := a.Recorder().StartPhase("dcs-construct")
				dcs.End()
				a.End()
				outer.End()
			}
		}()
	}
	close(start)
	wg.Wait()

	rep := r.Snapshot(nil)
	if len(rep.Phases) != 200 {
		t.Fatalf("top-level phases = %d, want 200 (4 goroutines x 50)", len(rep.Phases))
	}
	var check func(ps []PhaseReport)
	check = func(ps []PhaseReport) {
		for _, p := range ps {
			switch p.Name {
			case "eedcb":
				if len(p.Children) != 2 {
					t.Fatalf("eedcb children = %d, want 2: %+v", len(p.Children), p)
				}
			case "dts", "dcs-construct":
				if len(p.Children) != 0 {
					t.Fatalf("%s has children: %+v", p.Name, p)
				}
			case "auxgraph":
				if len(p.Children) != 1 || p.Children[0].Name != "dcs-construct" {
					t.Fatalf("auxgraph subtree: %+v", p)
				}
			default:
				t.Fatalf("unexpected phase %q", p.Name)
			}
			check(p.Children)
		}
	}
	check(rep.Phases)
}
