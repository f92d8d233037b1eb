package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro"
	"repro/internal/obs"
)

// span is one interval the benchmark itself recorded around a call into
// the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: none
	Name   string `json:"name"`
	// StartUS and EndUS are microseconds since the traced pass began.
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps the benchmark's spans in memory until the run writes
// them out. The nil tracer records nothing, which is how untraced runs
// carry no tracing cost.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 on nil).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartUS: t.sinceUS()})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndUS = t.sinceUS()
}

func (t *tracer) sinceUS() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// durationsMS returns the duration of every closed span called name.
func (t *tracer) durationsMS(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndUS > 0 {
			out = append(out, (s.EndUS-s.StartUS)/1000)
		}
	}
	return out
}

// write saves the spans and the program's phase tree, as a Chrome trace,
// under dir.
func (t *tracer) write(dir, stem string, rep tmedb.RunReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".spans.json"), b, 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, stem+".trace.json"))
	if err != nil {
		return err
	}
	if err := rep.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// phaseWallsMS returns the wall time of every phase, at any depth, whose
// name is one of names.
func phaseWallsMS(phases []obs.PhaseReport, names ...string) []float64 {
	var out []float64
	walkPhases(phases, func(p obs.PhaseReport) {
		if slices.Contains(names, p.Name) {
			out = append(out, p.WallMS)
		}
	})
	return out
}

// selfMS sums the self time of every phase whose name is one of names:
// its wall time minus the part of its interval its children cover.
func selfMS(phases []obs.PhaseReport, names ...string) float64 {
	total := 0.0
	walkPhases(phases, func(p obs.PhaseReport) {
		if slices.Contains(names, p.Name) {
			total += p.WallMS - coveredMS(p)
		}
	})
	return total
}

func walkPhases(phases []obs.PhaseReport, f func(obs.PhaseReport)) {
	for _, p := range phases {
		f(p)
		walkPhases(p.Children, f)
	}
}

// coveredMS is the length of the union of p's children's intervals,
// clipped to p's own interval. Children of one phase may overlap when
// they ran on different goroutines.
func coveredMS(p obs.PhaseReport) float64 {
	type iv struct{ a, b float64 }
	lo, hi := p.StartMS, p.StartMS+p.WallMS
	var ivs []iv
	for _, c := range p.Children {
		a, b := max(c.StartMS, lo), min(c.StartMS+c.WallMS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int {
		switch {
		case x.a < y.a:
			return -1
		case x.a > y.a:
			return 1
		}
		return 0
	})
	sum, end := 0.0, lo
	for _, v := range ivs {
		if v.b > end {
			sum += v.b - max(v.a, end)
			end = v.b
		}
	}
	return sum
}
