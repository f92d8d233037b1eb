// Command tmedb plans and evaluates one delay-constrained broadcast on a
// contact trace: it runs the chosen algorithm (EEDCB, FR-EEDCB, GREED,
// FR-GREED, RAND, FR-RAND), prints the relay schedule, checks the §IV
// feasibility conditions, and Monte Carlo-evaluates delivery and energy.
//
// Usage:
//
//	tmedb -alg fr-eedcb -model rayleigh [-trace t.txt] [-src 0] \
//	      [-t0 9000] [-delay 2000] [-trials 1000]
//
// Without -trace a synthetic Haggle-like trace is generated (-seed, -n).
//
// Observability: -metrics writes the machine-readable run report,
// -phases prints the phase tree with wall times and cache hit rates,
// -trace-out writes the phase tree as Chrome trace-event (catapult)
// JSON, and -pprof serves net/http/pprof plus the live report on
// /debug/vars and its Prometheus exposition on /metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/tveg"
)

func main() {
	var (
		algName   = flag.String("alg", "eedcb", "algorithm: eedcb|greed|rand|fr-eedcb|fr-greed|fr-rand")
		modelName = flag.String("model", "static", "channel model: static|rayleigh|rician|nakagami")
		tracePath = flag.String("trace", "", "trace file (empty: synthesize)")
		n         = flag.Int("n", 20, "nodes for the synthetic trace")
		seed      = flag.Int64("seed", 1, "seed for synthetic trace / RAND / evaluation")
		src       = flag.Int("src", 0, "source node")
		t0        = flag.Float64("t0", 9000, "broadcast release time (s)")
		delay     = flag.Float64("delay", 2000, "delay constraint (s)")
		trials    = flag.Int("trials", 1000, "Monte Carlo trials")
		workers   = flag.Int("workers", 1, "worker pool size for the solver and the Monte Carlo evaluation (0: GOMAXPROCS). Schedules are identical for every value; evaluation statistics depend on (seed, workers)")
		level     = flag.Int("level", 2, "recursive-greedy Steiner level for (FR-)EEDCB")
		outJSON   = flag.String("o", "", "write the planned schedule as JSON to this file")
		targets   = flag.String("targets", "", "comma-separated multicast targets (empty: broadcast); only (fr-)eedcb")
		verbose   = flag.Bool("v", false, "print every transmission")
		auditRun  = flag.Bool("audit", false, "run the differential execution-semantics audit over randomized cases (seeded by -seed) and exit; non-zero on any disagreement")
		auditN    = flag.Int("audit-cases", 250, "randomized cases for -audit")
		metrics   = flag.String("metrics", "", "write the JSON run report (phase tree, counters, cache hit rates, pool utilization) to this file")
		traceOut  = flag.String("trace-out", "", "write the run's phase tree as Chrome trace-event (catapult) JSON to this file, loadable in chrome://tracing or Perfetto")
		phases    = flag.Bool("phases", false, "print the phase tree and metrics summary after the run")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof and the live run report (expvar \"tmedb\" on /debug/vars) on this address, e.g. localhost:6060")
		budget    = flag.Duration("deadline", 0, "total wall-clock solve budget (e.g. 2s); engages the degradation ladder, which falls from the primary planner to cheaper ones as the budget runs out. 0 plans unbudgeted with -alg")
		ladder    = flag.String("ladder", "", "comma-separated degradation ladder for -deadline (rungs: full|spt|greed|rand; empty: full,spt,greed,rand)")
	)
	flag.Parse()
	if err := validateFlags(flagConfig{
		n: *n, src: *src, delay: *delay, trials: *trials, workers: *workers,
		level: *level, auditCases: *auditN, budget: *budget, ladder: *ladder,
		targets: *targets,
	}); err != nil {
		fatal(err)
	}

	var rec *tmedb.Recorder
	if *metrics != "" || *phases || *pprofAddr != "" || *traceOut != "" {
		rec = tmedb.NewRecorder()
	}
	if *pprofAddr != "" {
		if err := rec.PublishExpvar("tmedb"); err != nil {
			fatal(err)
		}
		dbg, err := tmedb.ServeDebug(context.Background(), *pprofAddr)
		if err != nil {
			fatal(err)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "tmedb: pprof/expvar on http://%s/debug/pprof\n", dbg.Addr())
	}

	if *auditRun {
		rep := tmedb.RunAudit(*auditN, *seed)
		fmt.Print(rep)
		if !rep.Ok() {
			os.Exit(1)
		}
		return
	}

	model, err := tveg.ParseModel(strings.ToLower(*modelName))
	if err != nil {
		fatal(err)
	}
	alg, err := core.New(*algName, *level, *seed, *workers, rec)
	if err != nil {
		fatal(err)
	}

	var trace *tmedb.Trace
	traceName := *tracePath
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fatal(err)
		}
		trace, err = tmedb.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		trace = tmedb.GenerateTrace(tmedb.TraceOptions{N: *n}, *seed)
		traceName = fmt.Sprintf("synthetic(n=%d,seed=%d)", *n, *seed)
	}
	g := trace.ToTVEG(0, tmedb.DefaultParams(), model)
	if *src < 0 || *src >= g.N() {
		fatal(fmt.Errorf("source %d outside [0,%d)", *src, g.N()))
	}

	deadline := *t0 + *delay
	var sched tmedb.Schedule
	var tgt []tmedb.NodeID
	var outcome *tmedb.DegradeOutcome
	if *targets != "" {
		var terr error
		tgt, terr = parseTargets(*targets, g.N())
		if terr != nil {
			fatal(terr)
		}
		switch a := alg.(type) {
		case tmedb.EEDCB:
			sched, err = a.Multicast(g, tmedb.NodeID(*src), tgt, *t0, deadline)
		case tmedb.FREEDCB:
			sched, err = a.Multicast(g, tmedb.NodeID(*src), tgt, *t0, deadline)
		default:
			fatal(fmt.Errorf("-targets requires -alg eedcb or fr-eedcb"))
		}
	} else if *budget > 0 {
		rungs, lerr := tmedb.ParseLadder(*ladder)
		if lerr != nil {
			fatal(lerr)
		}
		sched, outcome, err = tmedb.SolveWithLadder(context.Background(), g, tmedb.NodeID(*src), *t0, deadline, tmedb.DegradeOptions{
			Budget: *budget, Ladder: rungs, Level: *level,
			Workers: *workers, Seed: *seed, Obs: rec,
		})
	} else {
		sched, err = alg.Schedule(g, tmedb.NodeID(*src), *t0, deadline)
	}
	var inc *tmedb.IncompleteError
	switch {
	case err == nil:
	case errors.As(err, &inc):
		fmt.Printf("warning: %v\n", inc)
	default:
		fatal(err)
	}

	algName2 := alg.Name()
	if outcome != nil {
		algName2 = outcome.Algorithm
		fmt.Printf("degradation      rung=%s budget=%v", outcome.Rung, outcome.Budget)
		if outcome.Reason != "" {
			fmt.Printf(" (%s)", outcome.Reason)
		}
		fmt.Println()
	}
	fmt.Printf("algorithm        %s (%s channel)\n", algName2, model)
	fmt.Printf("trace            %d nodes, %d contacts, horizon %.0f s\n",
		trace.N, len(trace.Contacts), trace.Horizon)
	fmt.Printf("broadcast        src=%d window=[%.0f, %.0f] s\n", *src, *t0, deadline)
	fmt.Printf("transmissions    %d\n", len(sched))
	fmt.Printf("planned energy   %.6g (normalized by γth)\n",
		sched.NormalizedCost(g.Params.GammaTh))
	if *verbose {
		for k, x := range sched {
			fmt.Printf("  tx %2d: node %2d at t=%.1f  w=%.4g\n", k, x.Relay, x.T, x.W)
		}
	}

	if len(tgt) > 0 {
		ok := true
		for _, n := range tgt {
			if p := tmedb.UninformedProb(g, sched, tmedb.NodeID(*src), n, deadline); p > g.Params.Eps*1.000001 {
				fmt.Printf("feasibility      VIOLATED: target %d residual failure %.4g > ε\n", n, p)
				ok = false
			}
		}
		if ok {
			fmt.Printf("feasibility      ok (every multicast target within ε)\n")
		}
	} else if err := tmedb.CheckFeasible(g, sched, tmedb.NodeID(*src), deadline, math.Inf(1)); err != nil {
		fmt.Printf("feasibility      VIOLATED: %v\n", err)
	} else {
		fmt.Printf("feasibility      ok (all four §IV conditions)\n")
	}

	if diffs := tmedb.AuditSchedule(g, sched, tmedb.NodeID(*src), *t0, deadline, math.Inf(1)); len(diffs) == 0 {
		fmt.Printf("audit            ok (all execution semantics agree)\n")
	} else {
		for _, d := range diffs {
			fmt.Printf("audit            MISMATCH: %s\n", d)
		}
		fatal(fmt.Errorf("execution semantics disagree on the planned schedule"))
	}

	evalSpan := rec.StartPhase("evaluate")
	evalSpan.SetInt("trials", *trials)
	res := tmedb.EvaluateParallelObs(g, sched, tmedb.NodeID(*src), *trials, *seed, *workers, rec)
	evalSpan.End()
	fmt.Printf("evaluation       %v\n", res)

	// Sample the graph's cost-cache counters once the full pipeline
	// (planning, feasibility, audit, evaluation) has exercised them.
	tmedb.RecordCacheStats(rec, g)
	report := rec.Snapshot(map[string]string{
		"algorithm": algName2,
		"model":     model.String(),
		"trace":     traceName,
	})

	if *outJSON != "" {
		meta := &tmedb.ScheduleMeta{
			Algorithm: algName2,
			Model:     model.String(),
			Seed:      *seed,
			Workers:   *workers,
			Trace:     traceName,
			Src:       *src,
			T0:        *t0,
			Deadline:  deadline,
		}
		outcome.Annotate(meta)
		if rec != nil {
			meta.PhaseMS = report.PhaseWallMS()
		}
		f, err := os.Create(*outJSON)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := tmedb.WriteScheduleJSONMeta(f, sched, meta); err != nil {
			fatal(err)
		}
		fmt.Printf("schedule written to %s\n", *outJSON)
	}
	if *phases {
		fmt.Print(report.String())
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			fatal(err)
		}
		fmt.Printf("run report written to %s\n", *metrics)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := report.WriteTrace(f); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
}

// flagConfig carries the numeric/shape flags subject to upfront
// validation, so bad invocations fail with one clear message before any
// work (trace IO, planning) starts.
type flagConfig struct {
	n          int
	src        int
	delay      float64
	trials     int
	workers    int
	level      int
	auditCases int
	budget     time.Duration
	ladder     string
	targets    string
}

// validateFlags rejects structurally invalid flag combinations.
func validateFlags(c flagConfig) error {
	if c.n <= 0 {
		return fmt.Errorf("-n must be positive (got %d)", c.n)
	}
	if c.src < 0 {
		return fmt.Errorf("-src must be >= 0 (got %d)", c.src)
	}
	if c.delay <= 0 {
		return fmt.Errorf("-delay must be positive (got %g)", c.delay)
	}
	if c.trials < 0 {
		return fmt.Errorf("-trials must be >= 0 (got %d)", c.trials)
	}
	if c.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d; 0 selects GOMAXPROCS)", c.workers)
	}
	if c.level < 1 {
		return fmt.Errorf("-level must be >= 1 (got %d)", c.level)
	}
	if c.auditCases <= 0 {
		return fmt.Errorf("-audit-cases must be positive (got %d)", c.auditCases)
	}
	if c.budget < 0 {
		return fmt.Errorf("-deadline must be >= 0 (got %v)", c.budget)
	}
	if c.ladder != "" {
		if c.budget == 0 {
			return fmt.Errorf("-ladder requires -deadline")
		}
		if _, err := tmedb.ParseLadder(c.ladder); err != nil {
			return err
		}
	}
	if c.budget > 0 && c.targets != "" {
		return fmt.Errorf("-deadline (degradation ladder) does not support -targets multicast")
	}
	return nil
}

func parseTargets(s string, n int) ([]tmedb.NodeID, error) {
	var out []tmedb.NodeID
	for _, part := range strings.Split(s, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &id); err != nil {
			return nil, fmt.Errorf("bad target %q", part)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("target %d outside [0,%d)", id, n)
		}
		out = append(out, tmedb.NodeID(id))
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmedb:", err)
	os.Exit(1)
}
