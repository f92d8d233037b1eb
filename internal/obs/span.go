package obs

import "time"

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
	run      *run
	name     string
	depth    int
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

// StartPhase opens a phase as a child of the handle's scope: the root
// for a recorder from New, the span for one from (*Span).Recorder.
// Returns nil on a nil recorder.
func (r *Recorder) StartPhase(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	parent := r.scope
	if parent.depth >= maxPhaseDepth {
		parent = r.root
	}
	sp := &Span{run: r.run, name: name, depth: parent.depth + 1, start: r.now()}
	parent.children = append(parent.children, sp)
	r.mu.Unlock()
	return sp
}

// Recorder returns a handle on the span's run whose phases open as the
// span's children. A stage whose phase covers later stages hands this
// handle to them. Nil on a nil span.
func (sp *Span) Recorder() *Recorder {
	if sp == nil {
		return nil
	}
	return &Recorder{run: sp.run, scope: sp}
}

// End closes the phase, recording its wall time. Ending a phase twice
// keeps the first end time.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.run.mu.Lock()
	if sp.end.IsZero() {
		sp.end = sp.run.now()
	}
	sp.run.mu.Unlock()
}

// SetFloat attaches a numeric attribute.
func (sp *Span) SetFloat(key string, v float64) {
	if sp == nil {
		return
	}
	sp.run.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Num: v})
	sp.run.mu.Unlock()
}

// SetInt attaches an integer attribute (stored as a float64 — run
// report values are JSON numbers either way).
func (sp *Span) SetInt(key string, v int) { sp.SetFloat(key, float64(v)) }

// SetStr attaches a string attribute.
func (sp *Span) SetStr(key, v string) {
	if sp == nil {
		return
	}
	sp.run.mu.Lock()
	sp.attrs = append(sp.attrs, Attr{Key: key, Str: v, IsStr: true})
	sp.run.mu.Unlock()
}

// Duration returns the span's wall time: end-start when closed, zero on
// nil, time-since-start while still open.
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	sp.run.mu.Lock()
	defer sp.run.mu.Unlock()
	return sp.durationLocked()
}

func (sp *Span) durationLocked() time.Duration {
	if sp.end.IsZero() {
		return sp.run.now().Sub(sp.start)
	}
	return sp.end.Sub(sp.start)
}
