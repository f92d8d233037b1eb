package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// TestSmoke runs every workload at smoke size, untraced once and traced
// twice. Each run must print every metric BENCHMARK.json names, in its
// unit, with no failed operation, and the two traced runs must agree on
// every exact-class counter.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Fatalf("BENCHMARK.json workloads %s, the benchmark runs %s", got, want)
	}
	dir := t.TempDir()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			smoke(t, name, "0", sp.EndToEnd)
			a := smoke(t, name, dir, sp.PerLayer)
			b := smoke(t, name, dir, sp.PerLayer)
			for _, m := range sp.PerLayer {
				if exact(m) && a.Metrics[m.Name] != b.Metrics[m.Name] {
					t.Errorf("exact counter %s differs between runs: %v vs %v", m.Name, a.Metrics[m.Name].Value, b.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// smoke runs one smoke-size invocation and checks its result line.
func smoke(t *testing.T, name, trace string, want []metricSpec) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", name, "-smoke", "-trace", trace}, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("trace %s: exit %d, no result line: %v\nstderr: %s", trace, code, err, stderr.String())
	}
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("trace %s: exit %d, correct %t, %d of %d operations failed\nstderr: %s",
			trace, code, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("trace %s: %d metrics printed, BENCHMARK.json names %d", trace, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("trace %s: metric %s printed as %+v (present %t), want unit %s", trace, m.Name, got, ok, m.Unit)
		}
	}
	return res
}

// exact reports whether a per-layer metric is a work counter, or a ratio
// of work counters, that repeats exactly across runs. graph.arena.allocs
// is the noisy exception: sync.Pool eviction decides how many arena
// buffers are fresh.
func exact(m metricSpec) bool {
	if m.Unit == "ms" {
		return false
	}
	for _, p := range []string{"graph.bucketq.", "steiner.level2.", "steiner.dijkstra.", "nlp.", "sim.",
		"dts.memo.", "dts.patch.", "auxgraph.patch.", "dts.points", "auxgraph.vertices", "auxgraph.edges"} {
		if strings.HasPrefix(m.Name, p) {
			return true
		}
	}
	return false
}

// TestEditCyclesRestoreBase runs 100 add → retime → remove cycles of the
// edit generator edit-churn and daemon-mixed share, on several traces.
// Every edit must apply, and every finished cycle must leave each (0, j)
// pair with exactly its base contacts, so that a cycle costs the same
// however many ran before it.
func TestEditCyclesRestoreBase(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		tr := tmedb.GenerateTrace(tmedb.DefaultConfig().TraceOpts, seed).Restrict(20)
		base := tr.ToTVEG(0, tmedb.DefaultParams(), tmedb.Static)
		g := tr.ToTVEG(0, tmedb.DefaultParams(), tmedb.Static)
		rng := rand.New(rand.NewSource(seed))
		var last churnEdit
		for i := 0; i < 300; i++ {
			ed, err := nextEdit(rng, base, last, i)
			if err != nil {
				t.Fatalf("seed %d edit %d: %v", seed, i, err)
			}
			if err := ed.apply(g); err != nil {
				t.Fatalf("seed %d edit %d %+v: %v", seed, i, ed, err)
			}
			last = ed
			if i%3 != 2 {
				continue
			}
			for j := tmedb.NodeID(1); j < 20; j++ {
				if got, want := g.Segments(0, j), base.Segments(0, j); !slices.Equal(got, want) {
					t.Fatalf("seed %d cycle %d: (0,%d) has %v, the base has %v", seed, i/3, j, got, want)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread definition to Python's
// statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// TestScaleByKernelRunsAroundLap checks the host scaling: a lap is
// multiplied by refKernelMS over the mean of the kernel runs that ended
// within calWindow of it, always counting the last run before it and
// the first after it.
func TestScaleByKernelRunsAroundLap(t *testing.T) {
	ms := time.Millisecond
	ref := []refRun{
		{0, 2 * refKernelMS},          // more than calWindow before the second lap
		{100 * ms, 2 * refKernelMS},   // just before the first lap
		{5000 * ms, refKernelMS},      // after the first lap, 4.7 s later
		{5100 * ms, 4 * refKernelMS},  // just before the second lap
		{8000 * ms, 3 * refKernelMS},  // after the second lap, 2.7 s later
		{20000 * ms, 9 * refKernelMS}, // far from both laps
	}
	laps := []lap{{200 * ms, 300 * ms, 12}, {5200 * ms, 5300 * ms, 12}}
	// First lap: the runs at 0 and 0.1 s lie within 1 s, and the run at
	// 5 s is the first after it. Second lap: the runs at 5 and 5.1 s lie
	// within 1 s, and the run at 8 s is the first after it.
	want := []float64{12 / ((2 + 2 + 1) / 3.0), 12 / ((1 + 4 + 3) / 3.0)}
	got := scale(laps, ref)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("lap %d scaled to %v ms, want %v", i, got[i], want[i])
		}
	}
}

// TestSelfTimeSubtractsChildUnion checks that overlapping children are
// subtracted once and that parts of children outside the parent do not
// count.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	phases := []obs.PhaseReport{{
		Name: "steiner", StartMS: 10, WallMS: 100,
		Children: []obs.PhaseReport{
			{Name: "a", StartMS: 20, WallMS: 30},  // [20,50)
			{Name: "b", StartMS: 40, WallMS: 20},  // [40,60), overlaps a
			{Name: "c", StartMS: 100, WallMS: 50}, // [100,150), clipped to [100,110)
		},
	}}
	if got := selfMS(phases, "steiner"); got != 100-40-10 {
		t.Errorf("self time %v, want 50", got)
	}
}
