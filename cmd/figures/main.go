// Command figures regenerates every figure panel of the paper's
// evaluation section (§VII) as plain data tables: Fig. 4(a)/(b),
// Fig. 5(a)/(b), Fig. 6(a)/(b), and Fig. 7(a)/(b), plus the
// supplementary complexity and approximation-gap tables.
//
// Usage:
//
//	figures [-panel all|4a|4b|5a|5b|6|7a|7b|complexity|gap] [-quick] [-seed 1]
//
// -quick trims the sweep (one source, fewer trials) for a fast preview;
// the default runs the full paper grid and takes a few minutes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro"
)

func main() {
	var (
		panel    = flag.String("panel", "all", "panel to regenerate: all|4a|4b|5a|5b|6|7a|7b|complexity|gap")
		quick    = flag.Bool("quick", false, "single source, fewer Monte Carlo trials")
		seed     = flag.Int64("seed", 1, "trace seed")
		workers  = flag.Int("workers", 0, "worker pool size for the sweep and the solver cores (0: GOMAXPROCS); tables are identical for every value")
		doAudit  = flag.Bool("audit", false, "cross-check every planned schedule through all execution semantics; aborts on any disagreement")
		metrics  = flag.String("metrics", "", "write the aggregated JSON run report for the whole sweep to this file")
		deadline = flag.Duration("deadline", 0, "per-schedule wall-clock solve budget (e.g. 500ms); an expired budget skips the data point instead of stalling the sweep. 0 plans unbudgeted")
	)
	flag.Parse()
	if *deadline < 0 {
		fmt.Fprintf(os.Stderr, "figures: -deadline must be >= 0 (got %v)\n", *deadline)
		os.Exit(1)
	}

	cfg := tmedb.DefaultConfig()
	cfg.TraceSeed = seed2(*seed)
	cfg.Workers = *workers
	cfg.Audit = *doAudit
	cfg.Deadline = *deadline
	if *quick {
		cfg.Sources = []tmedb.NodeID{0}
		cfg.Trials = 200
	}
	if *metrics != "" {
		cfg.Obs = tmedb.NewRecorder()
	}

	want := func(p string) bool { return *panel == "all" || *panel == p }
	ran := false
	start := time.Now()

	if want("4a") {
		emit(tmedb.Fig4(cfg, tmedb.Static))
		ran = true
	}
	if want("4b") {
		emit(tmedb.Fig4(cfg, tmedb.Rayleigh))
		ran = true
	}
	if want("5a") {
		emit(tmedb.Fig5(cfg, tmedb.Static))
		ran = true
	}
	if want("5b") {
		emit(tmedb.Fig5(cfg, tmedb.Rayleigh))
		ran = true
	}
	if want("6") {
		e, d := tmedb.Fig6(cfg)
		emit(e)
		emit(d)
		ran = true
	}
	if want("7a") {
		emit(tmedb.Fig7(cfg, tmedb.Static))
		ran = true
	}
	if want("7b") {
		emit(tmedb.Fig7(cfg, tmedb.Rayleigh))
		ran = true
	}
	if want("complexity") {
		emit(tmedb.ComplexityTable(cfg))
		ran = true
	}
	if want("gap") {
		emit(tmedb.GapTable(cfg))
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "figures: unknown panel %q\n", *panel)
		os.Exit(1)
	}
	if *metrics != "" {
		rep := cfg.Obs.Snapshot(map[string]string{
			"command": "figures",
			"panel":   *panel,
			"seed":    fmt.Sprint(cfg.TraceSeed),
			"workers": fmt.Sprint(cfg.Workers),
			"quick":   fmt.Sprint(*quick),
		})
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "figures: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "figures: run report written to %s\n", *metrics)
	}
	fmt.Fprintf(os.Stderr, "figures: done in %v\n", time.Since(start).Round(time.Millisecond))
}

func seed2(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

func emit(f tmedb.FigureResult) {
	fmt.Println(f.String())
}
