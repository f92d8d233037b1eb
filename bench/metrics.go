package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads: the workloads and
// the names, units and bounds of the metrics it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadSpec(root string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(b, &sp); err != nil {
		return sp, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return sp, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pick returns the computed metrics that defs name. A name the run did
// not compute, or computed in another unit, means this program and
// BENCHMARK.json disagree.
func pick(computed map[string]metric, defs []metricSpec) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := computed[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not computed", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s: computed in %s, BENCHMARK.json says %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

// layerUnit derives a per-layer metric's unit from its name: times end
// in _ms, sizes in _mb, shares in _ratio, _frac or _per_pop, and
// everything else counts work.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, "_per_pop"):
		return "ratio"
	}
	return "count"
}

// percentile returns the q-quantile of xs, interpolating linearly
// between the closest ranks (0 for an empty sample).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4), the "exclusive" method the
// run-to-run spread of BENCHMARK.json's bounds is defined with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// stat summarizes one end-to-end metric over several runs.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	// Spread is (Q3-Q1)/Median, the run-to-run spread the metric's
	// bound must cover.
	Spread    float64 `json:"spread"`
	Bound     float64 `json:"bound"`
	OverBound bool    `json:"over_bound"`
}

func summarize(xs []float64, m metricSpec) stat {
	q1, med, q3 := quartiles(xs)
	st := stat{Unit: m.Unit, Median: med, Q1: q1, Q3: q3, Bound: m.Bound}
	if med != 0 {
		st.Spread = (q3 - q1) / med
	}
	st.OverBound = st.Spread > m.Bound
	return st
}

// summary is what a multi-run invocation prints last.
type summary struct {
	Env       map[string]string           `json:"env"`
	Seed      int64                       `json:"seed"`
	Runs      int                         `json:"runs"`
	Correct   bool                        `json:"correct"`
	Workloads map[string]*workloadSummary `json:"workloads"`
}

type workloadSummary struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]stat   `json:"metrics"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
}

func (s summary) print(w io.Writer, sp spec) {
	fmt.Fprintf(w, "# %s, commit %s, nproc %s, GOMAXPROCS %s, seed %d, %d run(s) per workload\n",
		s.Env["go"], s.Env["commit"], s.Env["nproc"], s.Env["gomaxprocs"], s.Seed, s.Runs)
	for _, wl := range sp.Workloads {
		ws := s.Workloads[wl.Name]
		if ws == nil {
			continue
		}
		fmt.Fprintf(w, "%s: %d operations, %d failed\n", wl.Name, ws.Attempted, ws.Failed)
		for _, m := range sp.EndToEnd {
			st := ws.Metrics[m.Name]
			flag := ""
			if st.OverBound {
				flag = "  SPREAD OVER BOUND"
			}
			fmt.Fprintf(w, "  %-18s %14.4f %-5s q1 %.4f q3 %.4f spread %.3f bound %.2f%s\n",
				m.Name, st.Median, m.Unit, st.Q1, st.Q3, st.Spread, m.Bound, flag)
		}
		for _, m := range sp.PerLayer {
			if v, ok := ws.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-36s %16.6g %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
}
