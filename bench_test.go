package tmedb

// Benchmark harness: one benchmark per figure panel of §VII plus the
// ablations DESIGN.md calls out. Each figure benchmark regenerates its
// panel's data series end-to-end (trace synthesis → scheduling →
// evaluation) and logs the data table on the first iteration, so
//
//	go test -bench=Fig -benchmem -v
//
// both times the pipeline and prints the regenerated rows. The full
// paper-scale sweep lives in cmd/figures; the benchmarks use a config
// with a single source to keep iterations meaningful.

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/auxgraph"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/dts"
	"repro/internal/nlp"
)

// benchConfig is the figure configuration used by the benchmarks: the
// paper's parameter grid with a single source per data point.
func benchConfig() ExperimentConfig {
	cfg := DefaultConfig()
	cfg.Sources = []NodeID{0}
	cfg.Trials = 200
	return cfg
}

func logOnce(b *testing.B, i int, res ...FigureResult) {
	if i != 0 {
		return
	}
	for _, r := range res {
		b.Log("\n" + r.String())
	}
}

func BenchmarkFig4aEEDCBDelaySweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, Fig4(cfg, Static))
	}
}

func BenchmarkFig4bFREEDCBDelaySweep(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, Fig4(cfg, Rayleigh))
	}
}

// Fig. 5 is the headline solver benchmark, so it doubles as the
// parallel-speedup regression check: the serial pools against a
// GOMAXPROCS-wide pool on the identical sweep (the output tables are
// byte-identical by the determinism contract; only the wall clock moves).
func BenchmarkFig5aStaticAlgorithms(b *testing.B) {
	cfg := benchConfig()
	for _, workers := range fig5WorkerGrid() {
		cfg.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				logOnce(b, i, Fig5(cfg, Static))
			}
		})
	}
}

func BenchmarkFig5bFadingAlgorithms(b *testing.B) {
	cfg := benchConfig()
	for _, workers := range fig5WorkerGrid() {
		cfg.Workers = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				logOnce(b, i, Fig5(cfg, Rayleigh))
			}
		})
	}
}

// fig5WorkerGrid is {1, GOMAXPROCS}, collapsed on single-CPU machines.
func fig5WorkerGrid() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1}
}

func BenchmarkFig6aEnergyVsN(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		e, _ := Fig6(cfg)
		logOnce(b, i, e)
	}
}

func BenchmarkFig6bDeliveryVsN(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		_, d := Fig6(cfg)
		logOnce(b, i, d)
	}
}

func BenchmarkFig7aEnergyOverTime(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, Fig7(cfg, Static))
	}
}

func BenchmarkFig7bEnergyOverTimeFading(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, Fig7(cfg, Rayleigh))
	}
}

// --- Ablations -----------------------------------------------------------

// benchGraph builds the default 20-node experiment graph.
func benchGraph(model Model) *Graph {
	cfg := benchConfig()
	return cfg.graphFor(20, model)
}

// BenchmarkAblationSteinerLevel compares the recursive-greedy level ℓ:
// level 1 (shortest-path tree) vs level 2 (density greedy) on the same
// instance, reporting the energy each achieves.
func BenchmarkAblationSteinerLevel(b *testing.B) {
	g := benchGraph(Static)
	for _, level := range []int{1, 2} {
		b.Run(fmt.Sprintf("level=%d", level), func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				s, err := (EEDCB{Level: level}).Schedule(g, 0, 9000, 11000)
				if err != nil {
					b.Fatal(err)
				}
				energy = s.NormalizedCost(g.Params.GammaTh)
			}
			b.ReportMetric(energy*1e18, "attoJ/γth")
		})
	}
}

// BenchmarkAblationDTSTau compares the τ→0 fast path against the full
// τ-propagation closure (§V complexity discussion), reporting DTS sizes.
func BenchmarkAblationDTSTau(b *testing.B) {
	cfg := benchConfig()
	for _, tau := range []float64{0, 1} {
		b.Run(fmt.Sprintf("tau=%g", tau), func(b *testing.B) {
			tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(20)
			g := tr.ToTVEG(tau, cfg.Params, Static)
			var points int
			for i := 0; i < b.N; i++ {
				d, _ := dts.Build(g.Graph, 9000, 11000, dts.Options{})
				points = d.TotalPoints()
			}
			b.ReportMetric(float64(points), "DTSpoints")
		})
	}
}

// BenchmarkAblationDTSPruning compares the pruned DTS against the full
// per-node point set. NoMemo makes every iteration a full build: on one
// graph, every build after the first would otherwise be a memo hit.
func BenchmarkAblationDTSPruning(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(20)
	g := tr.ToTVEG(0, cfg.Params, Static)
	for _, noPrune := range []bool{false, true} {
		b.Run(fmt.Sprintf("noPrune=%v", noPrune), func(b *testing.B) {
			var points int
			for i := 0; i < b.N; i++ {
				d, _ := dts.Build(g.Graph, 9000, 11000, dts.Options{NoPrune: noPrune, NoMemo: true})
				points = d.TotalPoints()
			}
			b.ReportMetric(float64(points), "DTSpoints")
		})
	}
}

// BenchmarkAblationNLPSolver compares the two energy allocators
// (greedy constraint-fixing with coordinate descent, Lagrangian dual)
// on FR-EEDCB instances.
func BenchmarkAblationNLPSolver(b *testing.B) {
	g := benchGraph(Rayleigh)
	for _, alloc := range []core.Allocator{core.AllocGreedy, core.AllocDual} {
		b.Run(alloc.String(), func(b *testing.B) {
			var energy float64
			for i := 0; i < b.N; i++ {
				s, err := (FREEDCB{Allocator: alloc}).Schedule(g, 0, 9000, 11000)
				if err != nil {
					b.Fatal(err)
				}
				energy = s.NormalizedCost(g.Params.GammaTh)
			}
			b.ReportMetric(energy*1e18, "attoJ/γth")
		})
	}
}

// --- Microbenchmarks of the substrates -----------------------------------

func BenchmarkDTSBuild(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(20)
	g := tr.ToTVEG(0, cfg.Params, Static)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dts.Build(g.Graph, 9000, 11000, dts.Options{})
	}
}

func BenchmarkAuxGraphBuild(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(20)
	g := tr.ToTVEG(0, cfg.Params, Static)
	d, _ := dts.Build(g.Graph, 9000, 11000, dts.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = auxgraph.Build(g, d, auxgraph.Options{})
	}
}

func BenchmarkEEDCBSchedule(b *testing.B) {
	g := benchGraph(Static)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (EEDCB{}).Schedule(g, 0, 9000, 11000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFREEDCBSchedule(b *testing.B) {
	g := benchGraph(Rayleigh)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (FREEDCB{}).Schedule(g, 0, 9000, 11000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGreedySchedule(b *testing.B) {
	g := benchGraph(Static)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Greedy{}).Schedule(g, 0, 9000, 11000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarloEvaluate(b *testing.B) {
	g := benchGraph(Rayleigh)
	s, err := (FREEDCB{}).Schedule(g, 0, 9000, 11000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(g, s, 0, 100, 1)
	}
}

// BenchmarkExecuteDES times one discrete-event realization with the
// collision model on, at the 8 ms airtime of the executor goldens, on
// the Monte Carlo benchmark's plan.
func BenchmarkExecuteDES(b *testing.B) {
	g := benchGraph(Rayleigh)
	s, err := (FREEDCB{}).Schedule(g, 0, 9000, 11000)
	if err != nil {
		b.Fatal(err)
	}
	opts := ExecOptions{Airtime: 0.008, Interference: true}
	b.ReportAllocs()
	b.ResetTimer()
	var delivered, collisions int
	for i := 0; i < b.N; i++ {
		res, err := ExecuteDES(g, s, 0, 9000, opts, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		delivered += res.Delivered
		collisions += res.Collisions
	}
	b.ReportMetric(float64(delivered)/float64(b.N), "delivered/op")
	b.ReportMetric(float64(collisions)/float64(b.N), "collisions/op")
}

// BenchmarkEvaluateWithInterference times the collision Monte Carlo
// evaluator at 200 trials on the same plan.
func BenchmarkEvaluateWithInterference(b *testing.B) {
	g := benchGraph(Rayleigh)
	s, err := (FREEDCB{}).Schedule(g, 0, 9000, 11000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateWithInterference(g, s, 0, 0.008, 200, 1)
	}
}

func BenchmarkRayleighEDFunction(b *testing.B) {
	ed := channel.Rayleigh{Beta: 1e-18}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += ed.FailureProb(1e-18 * float64(1+i%7))
	}
	_ = acc
}

func BenchmarkNLPGreedySolve(b *testing.B) {
	build := func() *nlp.Problem {
		p := nlp.NewProblem(10, 0, math.Inf(1))
		for c := 0; c < 20; c++ {
			p.AddConstraint(0.01,
				nlp.Term{Var: c % 10, ED: channel.Rayleigh{Beta: 1 + float64(c)}},
				nlp.Term{Var: (c + 3) % 10, ED: channel.Rayleigh{Beta: 2 + float64(c)}},
			)
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nlp.SolveGreedy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// Silence unused-import lint if core aliases change.
var _ core.Scheduler = EEDCB{}

// --- Extension benchmarks -------------------------------------------------

func BenchmarkEvaluateSequentialVsParallel(b *testing.B) {
	g := benchGraph(Rayleigh)
	s, err := (FREEDCB{}).Schedule(g, 0, 9000, 11000)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EvaluateParallel(g, s, 0, 2000, 1, workers)
			}
		})
	}
}

func BenchmarkExactSolver(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(8)
	g := tr.ToTVEG(0, cfg.Params, Static)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := OptimalSchedule(g, 0, 9000, 11000); err != nil {
			b.Skip(err) // window may be infeasible for tiny N
		}
	}
}

func BenchmarkMulticastVsBroadcast(b *testing.B) {
	g := benchGraph(Static)
	targets := []NodeID{3, 9, 15}
	b.Run("multicast3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (EEDCB{}).Multicast(g, 0, targets, 9000, 11000); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("broadcast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (EEDCB{}).Schedule(g, 0, 9000, 11000); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkInterferenceSerialize(b *testing.B) {
	g := benchGraph(Static)
	s, err := (EEDCB{}).Schedule(g, 0, 9000, 11000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SerializeSchedule(g, s, 0.008); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRobustEvaluation(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(12)
	nd := NDFromTrace(tr, 0, cfg.Params, Static, 0.5, 1.0, 3)
	view := nd.LikelyView(0)
	s, err := (EEDCB{}).Schedule(view, 0, 9000, 11000)
	if onlyRealErr(err) != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EvaluateRobust(nd, s, 0, 100, 1, 5)
	}
}

func BenchmarkJourneyQueries(b *testing.B) {
	cfg := benchConfig()
	tr := GenerateTrace(cfg.TraceOpts, cfg.TraceSeed).Restrict(20)
	g := tr.ToTVEG(0, cfg.Params, Static)
	b.Run("foremost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Foremost(g, 0, NodeID(1+i%19), 0)
		}
	})
	b.Run("reachability-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Reachable(g, 5000, 9000)
		}
	})
}

// onlyRealErr treats IncompleteError as success for bench setup.
func onlyRealErr(err error) error {
	var ie *IncompleteError
	if err == nil || errors.As(err, &ie) {
		return nil
	}
	return err
}

func BenchmarkComplexityTable(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, ComplexityTable(cfg))
	}
}

func BenchmarkGapTable(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		logOnce(b, i, GapTable(cfg))
	}
}

// BenchmarkIncrementalEditSolve is the single-edit replan comparison:
// after one contact edit, "cold" rebuilds the graph from the trace and
// solves from scratch (fresh graph identity and cost-set timelines, so
// nothing is reusable), while "incremental" applies the edit to the
// live graph and solves it. The new version misses the DTS and auxgraph
// memos and builds both, but its DCS queries read the timelines the
// previous solves filled for every node except the edited pair's two
// endpoints. The incremental variant alternates add/remove so the graph
// stays bounded while every iteration's version is fresh.
func BenchmarkIncrementalEditSolve(b *testing.B) {
	tr := GenerateTrace(TraceOptions{N: 20}, 1)
	alg := EEDCB{Level: 2}
	t0, deadline := 9000.0, 11000.0
	iv := Interval{Start: 9100, End: 9500}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := tr.ToTVEG(0, DefaultParams(), Static).EnableCostCache()
			if i%2 == 0 {
				g.AddContact(0, 9, iv, 8)
			}
			_, err := alg.Schedule(g, 0, t0, deadline)
			if err := onlyRealErr(err); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("incremental", func(b *testing.B) {
		g := tr.ToTVEG(0, DefaultParams(), Static).EnableCostCache()
		_, err := alg.Schedule(g, 0, t0, deadline)
		if err := onlyRealErr(err); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%2 == 0 {
				g.AddContact(0, 9, iv, 8)
			} else {
				g.RemoveContact(0, 9, iv)
			}
			_, err := alg.Schedule(g, 0, t0, deadline)
			if err := onlyRealErr(err); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIncrementalEditSolveReusesTimelines is the deterministic work
// proxy behind BenchmarkIncrementalEditSolve. An edit drops the cost-set
// timelines of its pair's two endpoints only, so a replan on the live
// graph answers every other node's DCS and MinCost queries from pieces
// earlier solves filled. Each round's replan must fill at most a quarter
// as many pieces (cost-cache misses, DCS plus MinCost) as a cold solve
// on a fresh replay of the edited graph. The rounds cycle through all
// three edit kinds (add, retime, remove). Wall-clock is left to the
// benchmark; the counters cannot flake.
func TestIncrementalEditSolveReusesTimelines(t *testing.T) {
	tr := GenerateTrace(TraceOptions{N: 20}, 1)
	alg := EEDCB{Level: 2}
	// solve plans on g and returns the cost-cache misses it caused.
	solve := func(g *Graph) int64 {
		t.Helper()
		before, _ := g.CostCacheStats()
		_, err := alg.Schedule(g, 0, 9000, 11000)
		if err := onlyRealErr(err); err != nil {
			t.Fatal(err)
		}
		after, _ := g.CostCacheStats()
		return after.DCSMisses + after.MinCostMisses - before.DCSMisses - before.MinCostMisses
	}
	added := Interval{Start: 9100, End: 9500}
	retimed := Interval{Start: 9190, End: 9590}
	edit := func(g *Graph, r int) {
		t.Helper()
		switch r % 3 {
		case 0:
			g.AddContact(0, 9, added, 8)
		case 1:
			if ok, err := g.RetimeChannel(0, 9, added, retimed); !ok || err != nil {
				t.Fatalf("round %d: retime %v -> %v: ok=%v err=%v", r, added, retimed, ok, err)
			}
		default:
			if !g.RemoveContact(0, 9, retimed) {
				t.Fatalf("round %d: remove %v changed nothing", r, retimed)
			}
		}
	}
	live := tr.ToTVEG(0, DefaultParams(), Static).EnableCostCache()
	solve(live) // fill the timelines
	const rounds = 6
	for r := 0; r < rounds; r++ {
		edit(live, r)
		warm := solve(live)
		replay := tr.ToTVEG(0, DefaultParams(), Static).EnableCostCache()
		for k := 0; k <= r; k++ {
			edit(replay, k)
		}
		cold := solve(replay)
		t.Logf("round %d: replan %d misses, cold solve %d (ratio %.2f)", r, warm, cold, float64(warm)/float64(cold))
		if cold == 0 || 4*warm > cold {
			t.Errorf("round %d: the replan filled %d cost-set pieces, a cold solve %d; want at most a quarter",
				r, warm, cold)
		}
	}
}
