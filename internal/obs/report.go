package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Report is the stable machine-readable snapshot of one run. The shape
// is versioned: additions bump nothing (new optional fields), removals
// or renames bump Version.
type Report struct {
	Version  int                `json:"version"`
	Meta     map[string]string  `json:"meta,omitempty"`
	WallMS   float64            `json:"wall_ms"`
	Phases   []PhaseReport      `json:"phases,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Pools    []PoolReport       `json:"pools,omitempty"`
	Rollings []RollingReport    `json:"rollings,omitempty"`
}

// reportVersion is the current run-report shape version.
const reportVersion = 1

// PhaseReport is one node of the phase tree.
type PhaseReport struct {
	Name string `json:"name"`
	// StartMS is the phase's start offset from the run's root span —
	// what lets the trace-event export place spans on a timeline
	// instead of only sizing them.
	StartMS  float64        `json:"start_ms"`
	WallMS   float64        `json:"wall_ms"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []PhaseReport  `json:"children,omitempty"`
}

// PoolReport is one worker pool's utilization.
type PoolReport struct {
	Name    string    `json:"name"`
	Runs    int64     `json:"runs"`
	Tasks   int64     `json:"tasks"`
	Workers int       `json:"workers"`
	BusyMS  []float64 `json:"busy_ms"`
	// Balance is min/max per-worker busy time in (0, 1]; 1 = perfectly
	// even, small = one slot did all the work. 0 when unmeasurable.
	Balance float64 `json:"balance"`
}

// Snapshot freezes the recorder's current state into a Report. Safe to
// call while work is ongoing (open phases report time-so-far). Returns a
// zero-value report on a nil recorder.
func (r *Recorder) Snapshot(meta map[string]string) Report {
	rep := Report{Version: reportVersion, Meta: meta}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	rep.WallMS = ms(r.root.durationLocked())
	for _, c := range r.root.children {
		rep.Phases = append(rep.Phases, phaseReport(c, r.root.start))
	}
	r.mu.Unlock()

	rep.Counters = map[string]int64{}
	r.counters.Range(func(k, v any) bool {
		rep.Counters[k.(string)] = v.(*Counter).Value()
		return true
	})
	if len(rep.Counters) == 0 {
		rep.Counters = nil
	}
	rep.Gauges = map[string]float64{}
	r.gauges.Range(func(k, v any) bool {
		rep.Gauges[k.(string)] = v.(*Gauge).Value()
		return true
	})
	// Derived cache hit rates from the RecordCache gauge convention.
	for name, hits := range rep.Gauges {
		base, ok := strings.CutSuffix(name, ".hits")
		if !ok {
			continue
		}
		misses, ok := rep.Gauges[base+".misses"]
		if !ok || hits+misses == 0 {
			continue
		}
		rep.Gauges[base+".hit_rate"] = hits / (hits + misses)
	}
	if len(rep.Gauges) == 0 {
		rep.Gauges = nil
	}

	r.rollings.Range(func(k, v any) bool {
		n, sum, window, capacity := v.(*Rolling).snapshot()
		rr := RollingReport{Name: k.(string), Window: capacity, Count: n, Sum: sum}
		if len(window) > 0 {
			sort.Float64s(window)
			rr.P50 = quantileSorted(window, 0.50)
			rr.P90 = quantileSorted(window, 0.90)
			rr.P99 = quantileSorted(window, 0.99)
		}
		rep.Rollings = append(rep.Rollings, rr)
		return true
	})
	sort.Slice(rep.Rollings, func(i, j int) bool { return rep.Rollings[i].Name < rep.Rollings[j].Name })

	r.pools.Range(func(k, v any) bool {
		runs, tasks, busy, width := v.(*Pool).snapshot()
		pr := PoolReport{Name: k.(string), Runs: runs, Tasks: tasks, Workers: width}
		var min, max float64
		for i, d := range busy {
			b := ms(d)
			pr.BusyMS = append(pr.BusyMS, b)
			if i == 0 || b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if max > 0 {
			pr.Balance = min / max
		}
		rep.Pools = append(rep.Pools, pr)
		return true
	})
	sort.Slice(rep.Pools, func(i, j int) bool { return rep.Pools[i].Name < rep.Pools[j].Name })
	return rep
}

func phaseReport(sp *Span, origin time.Time) PhaseReport {
	pr := PhaseReport{Name: sp.name, StartMS: ms(sp.start.Sub(origin)), WallMS: ms(sp.durationLocked())}
	if len(sp.attrs) > 0 {
		pr.Attrs = make(map[string]any, len(sp.attrs))
		for _, a := range sp.attrs {
			if a.IsStr {
				pr.Attrs[a.Key] = a.Str
			} else {
				pr.Attrs[a.Key] = a.Num
			}
		}
	}
	for _, c := range sp.children {
		pr.Children = append(pr.Children, phaseReport(c, origin))
	}
	return pr
}

// PhaseWallMS flattens the phase tree into slash-joined path → wall-ms
// (e.g. "eedcb/auxgraph/dcs-construct": 1.25). Duplicate paths sum.
func (rep Report) PhaseWallMS() map[string]float64 {
	out := map[string]float64{}
	var walk func(prefix string, ps []PhaseReport)
	walk = func(prefix string, ps []PhaseReport) {
		for _, p := range ps {
			path := p.Name
			if prefix != "" {
				path = prefix + "/" + p.Name
			}
			out[path] += p.WallMS
			walk(path, p.Children)
		}
	}
	walk("", rep.Phases)
	return out
}

// WriteJSON writes the report as indented JSON (maps marshal with
// sorted keys, so the bytes are stable for a given snapshot).
func (rep Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// String renders the human-readable summary: the phase tree with wall
// times, then counters, gauges (cache hit rates included), rolling
// windows, and pool utilization.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %.2f ms wall\n", rep.WallMS)
	var walk func(indent string, ps []PhaseReport, parentMS float64)
	walk = func(indent string, ps []PhaseReport, parentMS float64) {
		for _, p := range ps {
			share := ""
			if parentMS > 0 {
				share = fmt.Sprintf(" (%.0f%%)", 100*p.WallMS/parentMS)
			}
			fmt.Fprintf(&b, "%s%-24s %10.2f ms%s%s\n", indent, p.Name, p.WallMS, share, attrString(p.Attrs))
			walk(indent+"  ", p.Children, p.WallMS)
		}
	}
	walk("  ", rep.Phases, rep.WallMS)
	writeSortedInt(&b, "counters", rep.Counters)
	writeSortedFloat(&b, "gauges", rep.Gauges)
	for _, ro := range rep.Rollings {
		fmt.Fprintf(&b, "rolling %s: n=%d p50=%.4g p90=%.4g p99=%.4g\n", ro.Name, ro.Count, ro.P50, ro.P90, ro.P99)
	}
	for _, p := range rep.Pools {
		fmt.Fprintf(&b, "pool %s: runs=%d tasks=%d workers=%d balance=%.2f busy_ms=%s\n",
			p.Name, p.Runs, p.Tasks, p.Workers, p.Balance, fmtBusy(p.BusyMS))
	}
	return b.String()
}

func attrString(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, attrs[k])
	}
	return "  [" + strings.Join(parts, " ") + "]"
}

func writeSortedInt(b *strings.Builder, title string, m map[string]int64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(b, "  %-40s %d\n", k, m[k])
	}
}

func writeSortedFloat(b *strings.Builder, title string, m map[string]float64) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "%s:\n", title)
	for _, k := range keys {
		fmt.Fprintf(b, "  %-40s %.6g\n", k, m[k])
	}
}

func fmtBusy(busy []float64) string {
	parts := make([]string, len(busy))
	for i, v := range busy {
		parts[i] = fmt.Sprintf("%.2f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// published maps an expvar name to the swappable slot backing the
// expvar.Func registered under it. expvar registrations are permanent
// (expvar.Publish panics on duplicates and offers no unpublish), so the
// indirection is what makes PublishExpvar idempotent: the expvar.Func is
// registered once per name and forever reads whichever recorder the slot
// currently holds.
var (
	publishMu sync.Mutex
	published = map[string]*atomic.Pointer[Recorder]{}
)

// PublishExpvar publishes the recorder's live snapshot under the given
// expvar name. It is idempotent per name: re-publishing atomically swaps
// which recorder backs the registered expvar.Func — what a long-running
// process needs when successive runs (or re-invoked tests) each create a
// fresh recorder, where the old expvar.Publish-on-every-call shape
// panicked the process on the second run. It returns an error, never
// panics, on genuine misuse: an empty name, or a name already taken by
// an expvar this package did not register.
func (r *Recorder) PublishExpvar(name string) error {
	if name == "" {
		return fmt.Errorf("obs: PublishExpvar with empty name")
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	slot, ok := published[name]
	if !ok {
		if expvar.Get(name) != nil {
			return fmt.Errorf("obs: expvar %q already registered outside this package", name)
		}
		slot = new(atomic.Pointer[Recorder])
		published[name] = slot
		expvar.Publish(name, expvar.Func(func() any { return slot.Load().Snapshot(nil) }))
	}
	slot.Store(r)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
