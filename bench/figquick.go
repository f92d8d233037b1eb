package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"repro"
)

// figQuick regenerates the paper's Fig. 4-7 tables with the figures
// command's -quick configuration. One operation is one facade panel
// call; a sweep is the seven calls of figPanels, eight tables. Panel j of
// sweep k plans on trace (k+j) mod figTraces of the seed (trace seeds
// seed, seed+1000, …), so every sweep spreads its panels over seven
// traces and a panel moves to another trace every sweep. A whole sweep
// on one trace took from 7.0 to 8.9 s over ten traces, so sweeps on one
// trace each would make the run-to-run spread a property of the draw;
// and with sweeps alike, how many fit in a run matters less.
type figQuick struct {
	inProcess
	s      *session
	cfg    tmedb.ExperimentConfig
	panels []figPanel
	tables []tmedb.FigureResult // the last operation's
	h      hash.Hash            // the running sweep's tables
	// want[k] is the sha256 the tables of every sweep k (mod figTraces)
	// must hash to: the committed oracle at seed 1, else the first such
	// sweep's hash.
	want [figTraces]string
	// first holds the tables of the run's first operation, which finish
	// recomputes with two workers.
	first string
}

const figTraces = 11

type figPanel struct {
	name string
	run  func(tmedb.ExperimentConfig) []tmedb.FigureResult
}

// figPanels are the facade calls of one sweep, in table order
// 4a,4b,5a,5b,6a,6b,7a,7b.
var figPanels = []figPanel{
	{"4a", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig4(c, tmedb.Static)}
	}},
	{"4b", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig4(c, tmedb.Rayleigh)}
	}},
	{"5a", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig5(c, tmedb.Static)}
	}},
	{"5b", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig5(c, tmedb.Rayleigh)}
	}},
	{"6", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		e, d := tmedb.Fig6(c)
		return []tmedb.FigureResult{e, d}
	}},
	{"7a", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig7(c, tmedb.Static)}
	}},
	{"7b", func(c tmedb.ExperimentConfig) []tmedb.FigureResult {
		return []tmedb.FigureResult{tmedb.Fig7(c, tmedb.Rayleigh)}
	}},
}

func newFigQuick(s *session) (workload, error) {
	cfg := tmedb.DefaultConfig()
	cfg.Sources = []tmedb.NodeID{0}
	cfg.Trials = 200
	cfg.Workers = workers
	f := &figQuick{s: s, cfg: cfg, panels: figPanels}
	if s.smoke {
		f.panels = figPanels[2:3]
	}
	for k := range f.want {
		f.want[k] = s.oracle(fmt.Sprintf("fig-quick/%d", k))
	}
	return f, nil
}

// config returns the configuration operation i plans with.
func (f *figQuick) config(i int) tmedb.ExperimentConfig {
	k, j := i/len(f.panels), i%len(f.panels)
	return f.traceConfig((k + j) % figTraces)
}

func (f *figQuick) traceConfig(t int) tmedb.ExperimentConfig {
	cfg := f.cfg
	cfg.TraceSeed = f.s.seed + 1000*int64(t)
	return cfg
}

// setup materializes the traces and every graph the sweeps plan on. The
// Fig functions build their own copies, so this times the input
// construction each panel pays, which is where work moved out of the
// solvers would land.
func (f *figQuick) setup() error {
	for t := 0; t < figTraces; t++ {
		cfg := f.traceConfig(t)
		tr := tmedb.GenerateTrace(cfg.TraceOpts, cfg.TraceSeed)
		for _, n := range cfg.Ns {
			for _, model := range []tmedb.Model{tmedb.Static, tmedb.Rayleigh} {
				if g := tr.Restrict(n).ToTVEG(cfg.Tau, cfg.Params, model).EnableCostCache(); g.N() != n {
					return fmt.Errorf("graph has %d nodes, want %d", g.N(), n)
				}
			}
		}
	}
	return nil
}

func (f *figQuick) batch() int { return len(f.panels) }

func (f *figQuick) op(p pass, i int) error {
	cfg := f.config(i)
	cfg.Obs = p.rec
	pn := f.panels[i%len(f.panels)]
	id := p.spans.begin("figures."+pn.name, p.parent)
	f.tables = pn.run(cfg)
	p.spans.end(id)
	return nil
}

// check hashes the panel's tables into the sweep's and, after the last
// panel of a sweep, compares the sweep's hash with its oracle.
func (f *figQuick) check(i int) error {
	if i%len(f.panels) == 0 {
		f.h = sha256.New()
	}
	text := tablesText(f.tables)
	if i == 0 {
		f.first = text
	}
	f.h.Write([]byte(text))
	if (i+1)%len(f.panels) != 0 {
		return nil
	}
	k := i / len(f.panels) % figTraces
	got := hex.EncodeToString(f.h.Sum(nil))
	switch {
	case f.want[k] == "":
		f.want[k] = got
		fmt.Fprintf(f.s.log, "bench: fig-quick seed %d sweep %d tables sha256 %s\n", f.s.seed, k, got)
	case got != f.want[k]:
		return fmt.Errorf("sweep %d: tables sha256 %s, want %s", k, got, f.want[k])
	}
	return nil
}

// finish recomputes the run's first panel call with two workers: figure
// data is byte-identical for every worker count, which checks the tables
// on seeds that have no committed oracle.
func (f *figQuick) finish() (int, error) {
	cfg := f.config(0)
	cfg.Workers = 2
	if got := tablesText(f.panels[0].run(cfg)); got != f.first {
		fmt.Fprintf(f.s.log, "bench: fig-quick: panel %s with two workers differs from one worker\n", f.panels[0].name)
		return 1, nil
	}
	return 0, nil
}

func tablesText(tables []tmedb.FigureResult) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
	}
	return b.String()
}
