package obs

import (
	"runtime"
	"time"
)

// Attr is one key/value annotation on a span. Exactly one of Num/Str is
// meaningful, selected by IsStr; the split (instead of an `any` field)
// keeps the nil-receiver setters allocation-free — boxing a float64 into
// an interface would allocate before the nil check could run.
type Attr struct {
	Key   string
	Num   float64
	Str   string
	IsStr bool
}

// Span is one phase of a run: a named interval with attributes and child
// phases. The nil Span (from a nil Recorder) discards everything.
type Span struct {
	r        *Recorder
	name     string
	depth    int
	parent   *Span
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// maxPhaseDepth bounds phase-tree nesting. The serial pipeline is ~4
// levels deep; the cap is a safety net against pathological nesting
// (e.g. a recursive solver opening a span per level). Spans past the
// cap attach to the root instead, keeping reports bounded for JSON
// consumers.
const maxPhaseDepth = 16

// StartPhase opens a phase as a child of the innermost phase open on the
// calling goroutine (the root when none is open) and makes it that
// goroutine's current phase. The per-goroutine stacks are what keep
// concurrent Schedule calls sharing one recorder honest: each call's
// pipeline (dts → auxgraph → steiner) runs serially on its own
// goroutine, so its spans nest correctly, while spans from other
// goroutines become siblings under the root instead of splicing into a
// foreign call's open phase (the duplicated eedcb→dts→eedcb nesting
// that double-counted planner wall time in concurrent sweep reports).
// Returns nil on a nil recorder.
func (r *Recorder) StartPhase(name string) *Span {
	if r == nil {
		return nil
	}
	g := goroutineID()
	r.mu.Lock()
	parent := r.cur[g]
	if parent == nil || parent.depth >= maxPhaseDepth {
		parent = r.root
	}
	sp := &Span{r: r, name: name, depth: parent.depth + 1, parent: parent, start: r.now()}
	parent.children = append(parent.children, sp)
	r.cur[g] = sp
	r.mu.Unlock()
	return sp
}

// End closes the phase, recording its wall time. Ending a phase that is
// not the goroutine's current one (mismatched nesting under concurrent
// misuse) still stamps the end time; the current pointer only pops when
// it matches, so a stray End cannot corrupt the stack.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	g := goroutineID()
	r := sp.r
	r.mu.Lock()
	if sp.end.IsZero() {
		sp.end = r.now()
	}
	if r.cur[g] == sp {
		if sp.parent == nil || sp.parent == r.root {
			delete(r.cur, g) // keep the map from growing with dead goroutines
		} else {
			r.cur[g] = sp.parent
		}
	}
	r.mu.Unlock()
}

// goroutineID extracts the current goroutine's id from the runtime stack
// header ("goroutine 123 [running]:"). ~1µs per call — spans are opened
// a handful of times per solve, never inside the per-vertex hot loops,
// so the cost is noise; in exchange the span tree is correct under
// concurrent recorder sharing. The id is only ever used as a map key:
// no ordering or planner decision ever depends on it (determinism
// contract: spans are write-only).
func goroutineID() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	// Skip "goroutine " (10 bytes), parse digits up to the next space.
	var id uint64
	for _, c := range buf[10:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// SetFloat attaches a numeric attribute.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.r.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Num: v})
	sp.r.mu.Unlock()
}

// SetInt attaches an integer attribute (stored as a float64 — run
// report values are JSON numbers either way).
func (sp *Span) SetInt(key string, v int) { sp.SetFloat(key, float64(v)) }

// SetStr attaches a string attribute.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.r.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Str: v, IsStr: true})
	sp.r.mu.Unlock()
}

// Duration returns the span's wall time: end-start when closed, zero on
// nil, time-since-start while still open.
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.r.mu.Lock()
	defer sp.r.mu.Unlock()
	return sp.durationLocked()
}

func (sp *Span) durationLocked() time.Duration {
	if sp.end.IsZero() {
		return sp.r.now().Sub(sp.start)
	}
	return sp.end.Sub(sp.start)
}
