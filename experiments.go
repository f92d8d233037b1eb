package tmedb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ExperimentConfig parameterizes the §VII trace-driven experiments. The
// zero value is not usable; start from DefaultConfig.
type ExperimentConfig struct {
	// TraceSeed seeds the synthetic Haggle-like trace.
	TraceSeed int64
	// TraceOpts tunes the trace generator. TraceOpts.N must be at least
	// max(Ns).
	TraceOpts TraceOptions
	// Tau is the edge traversal time ζ. The paper's trace analysis uses
	// τ ≈ 0 (§V).
	Tau float64
	// Params are the physical-layer constants.
	Params Params
	// Sources are the broadcast sources results are averaged over
	// ("we randomly chose a source node", §VII).
	Sources []NodeID
	// T0 is the broadcast release time for the delay sweeps. The
	// default (9000 s) sits after the degree ramp.
	T0 float64
	// Delays are the delay constraints swept by Fig. 4 and Fig. 5
	// (§VII: 2000..6000 step 500).
	Delays []float64
	// Ns are the network sizes swept by Fig. 4 and Fig. 6.
	Ns []int
	// Trials is the Monte Carlo trial count for delivery ratios.
	Trials int
	// Workers bounds the worker pools at every level of the harness: the
	// per-data-point fan-out of the figure generators and the Workers
	// knob handed to the EEDCB/FR-EEDCB solver cores. 0 (the zero value)
	// selects GOMAXPROCS; 1 forces the fully serial paths. Schedules and
	// figure data are byte-identical for every value.
	Workers int
	// EvalSeed seeds the Monte Carlo evaluation.
	EvalSeed int64
	// SteinerLevel is the recursive-greedy level for EEDCB/FR-EEDCB.
	SteinerLevel int
	// Fig7Times are the window start times of Fig. 7 (§VII: every
	// 500 s from 5000 to 15000) and Fig7Delay the per-window deadline.
	Fig7Times []float64
	Fig7Delay float64
	// Deadline is a per-schedule wall-clock solve budget. When positive,
	// every planner invocation of the harness runs under a context with
	// this timeout, so a pathological data point surfaces as a skipped
	// cell (cancel.ErrBudgetExceeded, treated like any planner error)
	// instead of stalling the whole sweep. Zero (the default) plans
	// unbudgeted on the exact pre-cancellation code paths.
	Deadline time.Duration
	// Audit cross-checks every planned schedule through all execution
	// semantics (reference executor, sim, DES, both feasibility checks)
	// before its numbers enter a figure, and panics with the reference
	// event trace on any disagreement. Off by default: it roughly
	// doubles per-schedule cost.
	Audit bool
	// Obs aggregates metrics across every solver and evaluation run the
	// harness launches (cache hit rates, Dijkstra counts, pool busy
	// times, sim counters). Figure data is byte-identical with or
	// without it. With Workers > 1 the per-point runs interleave, but
	// spans nest per goroutine, so each run still yields a correctly
	// nested subtree (concurrent runs' top-level phases become siblings
	// under the root). Nil (the default) records nothing.
	Obs *obs.Recorder
}

// DefaultConfig returns the paper's §VII experiment setting: N = 20
// nodes, 17000 s trace, delay constraints 2000..6000 s step 500, default
// delay 2000 s, windows every 500 s in [5000, 15000] for Fig. 7.
func DefaultConfig() ExperimentConfig {
	cfg := ExperimentConfig{
		TraceSeed:    1,
		TraceOpts:    TraceOptions{N: 30}, // Fig. 6 sweeps up to 30 nodes
		Tau:          0,
		Params:       DefaultParams(),
		Sources:      []NodeID{0, 3, 7},
		T0:           9000,
		Trials:       400,
		EvalSeed:     42,
		SteinerLevel: 2,
		Fig7Delay:    2000,
	}
	for d := 2000.0; d <= 6000; d += 500 {
		cfg.Delays = append(cfg.Delays, d)
	}
	cfg.Ns = []int{10, 15, 20, 25, 30}
	for t := 5000.0; t <= 15000; t += 500 {
		cfg.Fig7Times = append(cfg.Fig7Times, t)
	}
	return cfg
}

// FigureResult is one regenerated panel: a labelled family of series
// over a shared x axis.
type FigureResult struct {
	Title  string
	XLabel string
	Series []*Series
}

// String renders the panel as an aligned data table.
func (f FigureResult) String() string {
	return stats.Table(f.Title, f.XLabel, f.Series...)
}

// workers resolves the harness worker knob to a concrete pool size.
func (cfg ExperimentConfig) workers() int { return parallel.Resolve(cfg.Workers) }

// schedulersFor returns the algorithm set of one §VII comparison family
// in core.Names order: the FR- planners on fading graphs, the rest on
// static ones. Every planner runs at the configured Steiner level and
// worker bound, RAND is seeded by the trace seed, and all record into
// cfg.Obs.
func (cfg ExperimentConfig) schedulersFor(fading bool) []Scheduler {
	var algs []Scheduler
	for _, name := range core.Names {
		if strings.HasPrefix(name, "FR-") == fading {
			alg, _ := core.New(name, cfg.SteinerLevel, cfg.TraceSeed, cfg.workers(), cfg.Obs) // a core.Names entry always resolves
			algs = append(algs, alg)
		}
	}
	return algs
}

// allSchedulers returns all six algorithms (Fig. 6 order).
func (cfg ExperimentConfig) allSchedulers() []Scheduler {
	return append(cfg.schedulersFor(false), cfg.schedulersFor(true)...)
}

// graphFor materializes the experiment trace restricted to n nodes.
func (cfg ExperimentConfig) graphFor(n int, model Model) *Graph {
	opts := cfg.TraceOpts
	if opts.N == 0 {
		opts.N = 30
	}
	if n > opts.N {
		panic(fmt.Sprintf("tmedb: n=%d exceeds trace nodes %d", n, opts.N))
	}
	return GenerateTrace(opts, cfg.TraceSeed).Restrict(n).ToTVEG(cfg.Tau, cfg.Params, model)
}

// auditSchedule cross-checks a freshly planned schedule through every
// execution semantics when cfg.Audit is on. A disagreement means the
// harness is about to aggregate numbers whose meaning depends on which
// executor you ask, so it fails loudly with the reference event trace
// rather than returning.
func (cfg ExperimentConfig) auditSchedule(alg Scheduler, g *Graph, s Schedule, src NodeID, t0, deadline float64) {
	if !cfg.Audit {
		return
	}
	diffs := audit.CompareSchedule(g, s, src, t0, deadline, math.Inf(1))
	if len(diffs) == 0 {
		return
	}
	tr := audit.Execute(g, s, src, audit.Options{T0: t0, Events: true})
	panic(fmt.Sprintf("tmedb: execution-semantics audit failed for %s (src=%d, window=[%g,%g]):\n  %s\nreference trace:\n%s",
		alg.Name(), src, t0, deadline, strings.Join(diffs, "\n  "), audit.FormatEvents(tr.Events)))
}

// planSchedule plans one broadcast under the configured per-schedule
// solve budget (cfg.Deadline; zero or negative plans under
// context.Background(), the exact pre-cancellation code path).
func (cfg ExperimentConfig) planSchedule(alg Scheduler, g *Graph, src NodeID, t0, deadline float64) (Schedule, error) {
	ctx := context.Background()
	if cfg.Deadline > 0 {
		var cancelFn context.CancelFunc
		ctx, cancelFn = context.WithTimeout(ctx, cfg.Deadline)
		defer cancelFn()
	}
	return alg.ScheduleCtx(ctx, g, src, t0, deadline)
}

// meanPlannedEnergy runs alg for every configured source and returns the
// mean normalized planned energy over the sources whose broadcast the
// planner completed, or NaN when none did. A partial coverage
// (*IncompleteError) is not comparable on energy and counts as not
// completed, as does any other planner error.
func (cfg ExperimentConfig) meanPlannedEnergy(alg Scheduler, g *Graph, t0, deadline float64) float64 {
	var energies []float64
	for _, src := range cfg.Sources {
		if int(src) >= g.N() {
			continue
		}
		s, err := cfg.planSchedule(alg, g, src, t0, deadline)
		if err != nil {
			continue
		}
		cfg.auditSchedule(alg, g, s, src, t0, deadline)
		energies = append(energies, s.NormalizedCost(g.Params.GammaTh))
	}
	if len(energies) == 0 {
		return math.NaN()
	}
	return stats.Mean(energies)
}

// energySeries fans meanPlannedEnergy out over xs, planning alg on g
// over the window that window(x) returns for each x, and collects the
// labelled series of mean energies.
func (cfg ExperimentConfig) energySeries(label string, alg Scheduler, g *Graph, xs []float64, window func(x float64) (t0, deadline float64)) *Series {
	ys := make([]float64, len(xs))
	runParallel(cfg.workers(), len(xs), func(i int) {
		t0, deadline := window(xs[i])
		ys[i] = cfg.meanPlannedEnergy(alg, g, t0, deadline)
	})
	s := &Series{Label: label}
	for i, x := range xs {
		s.Add(x, ys[i])
	}
	return s
}

// delayWindow is the window of a delay sweep's point d: released at
// cfg.T0, due d seconds later.
func (cfg ExperimentConfig) delayWindow(d float64) (t0, deadline float64) {
	return cfg.T0, cfg.T0 + d
}

// Fig4 regenerates Fig. 4(a) (model == Static) or Fig. 4(b) (model ==
// Rayleigh): normalized energy of EEDCB / FR-EEDCB versus the delay
// constraint, one series per network size N ∈ Ns (clipped to the three
// smallest, as in the paper).
func Fig4(cfg ExperimentConfig, model Model) FigureResult {
	alg := cfg.schedulersFor(model.Fading())[0]
	ns := cfg.Ns
	if len(ns) > 3 {
		ns = ns[:3]
	}
	out := FigureResult{
		Title:  fmt.Sprintf("Fig.4 %s: normalized energy vs delay constraint (%v channel)", alg.Name(), model),
		XLabel: "delay(s)",
	}
	for _, n := range ns {
		g := cfg.graphFor(n, model)
		out.Series = append(out.Series, cfg.energySeries(fmt.Sprintf("N=%d", n), alg, g, cfg.Delays, cfg.delayWindow))
	}
	return out
}

// Fig5 regenerates Fig. 5(a)/(b): normalized energy versus the delay
// constraint for the three algorithms of one channel family at the
// default network size (the largest N <= 20 in Ns).
func Fig5(cfg ExperimentConfig, model Model) FigureResult {
	n := defaultN(cfg)
	g := cfg.graphFor(n, model)
	out := FigureResult{
		Title:  fmt.Sprintf("Fig.5: normalized energy vs delay constraint, N=%d (%v channel)", n, model),
		XLabel: "delay(s)",
	}
	for _, alg := range cfg.schedulersFor(model.Fading()) {
		out.Series = append(out.Series, cfg.energySeries(alg.Name(), alg, g, cfg.Delays, cfg.delayWindow))
	}
	return out
}

// Fig6 regenerates Fig. 6(a) and 6(b): planned normalized energy and
// Monte Carlo delivery ratio versus the network size for all six
// algorithms in the Rayleigh fading environment. The default delay
// constraint (first of Delays) applies.
func Fig6(cfg ExperimentConfig) (energy, delivery FigureResult) {
	deadline := cfg.T0 + cfg.Delays[0]
	energy = FigureResult{Title: "Fig.6(a): normalized energy vs N (fading)", XLabel: "N"}
	delivery = FigureResult{Title: "Fig.6(b): packet delivery ratio vs N (fading)", XLabel: "N"}
	algs := cfg.allSchedulers()
	eSeries := make([]*Series, len(algs))
	dSeries := make([]*Series, len(algs))
	for i, alg := range algs {
		eSeries[i] = &Series{Label: alg.Name()}
		dSeries[i] = &Series{Label: alg.Name()}
	}
	type cell struct{ energy, delivery float64 }
	grid := make([][]cell, len(cfg.Ns))
	runParallel(cfg.workers(), len(cfg.Ns), func(ni int) {
		g := cfg.graphFor(cfg.Ns[ni], Rayleigh)
		row := make([]cell, len(algs))
		for i, alg := range algs {
			var energies, deliveries []float64
			for _, src := range cfg.Sources {
				if int(src) >= g.N() {
					continue
				}
				s, err := cfg.planSchedule(alg, g, src, cfg.T0, deadline)
				if err != nil {
					var ie *IncompleteError
					if !errors.As(err, &ie) {
						continue
					}
				}
				cfg.auditSchedule(alg, g, s, src, cfg.T0, deadline)
				res := sim.EvaluateObs(g, s, src, cfg.Trials, rng.New(cfg.EvalSeed), cfg.Obs)
				energies = append(energies, s.NormalizedCost(g.Params.GammaTh))
				deliveries = append(deliveries, res.MeanDelivery)
			}
			row[i] = cell{stats.Mean(energies), stats.Mean(deliveries)}
		}
		grid[ni] = row
	})
	for ni, n := range cfg.Ns {
		for i := range algs {
			eSeries[i].Add(float64(n), grid[ni][i].energy)
			dSeries[i].Add(float64(n), grid[ni][i].delivery)
		}
	}
	energy.Series = eSeries
	delivery.Series = dSeries
	return energy, delivery
}

// Fig7 regenerates Fig. 7(a) (static) or 7(b) (fading): normalized
// energy of the three algorithms of the channel family for broadcasts
// released every 500 s across the trace, plus the average node degree
// series both panels overlay.
func Fig7(cfg ExperimentConfig, model Model) FigureResult {
	n := defaultN(cfg)
	g := cfg.graphFor(n, model)
	out := FigureResult{
		Title:  fmt.Sprintf("Fig.7: energy and average degree over time, N=%d (%v channel)", n, model),
		XLabel: "t0(s)",
	}
	window := func(t0 float64) (float64, float64) { return t0, t0 + cfg.Fig7Delay }
	for _, alg := range cfg.schedulersFor(model.Fading()) {
		out.Series = append(out.Series, cfg.energySeries(alg.Name(), alg, g, cfg.Fig7Times, window))
	}
	deg := &Series{Label: "avg-degree"}
	for _, t0 := range cfg.Fig7Times {
		deg.Add(t0, g.AverageDegreeOver(t0, t0+500, 50))
	}
	out.Series = append(out.Series, deg)
	return out
}

func defaultN(cfg ExperimentConfig) int {
	n := cfg.Ns[0]
	for _, x := range cfg.Ns {
		if x <= 20 && x > n {
			n = x
		}
	}
	return n
}
