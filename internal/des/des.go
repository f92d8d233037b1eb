// Package des implements a small deterministic discrete-event simulation
// engine: a future-event list ordered by (time, class, insertion
// sequence). It is the execution substrate for the airtime-accurate
// broadcast executor in des/exec.go, and is generic enough for any
// continuous-time protocol experiment on top of the TVEG model.
package des

import (
	"fmt"
	"math"
)

// Action is a scheduled callback; it runs with the simulation clock set
// to its firing time.
type Action func(now float64)

type event struct {
	t      float64
	class  int
	seq    int64
	action Action
}

// before is the event list's total order: by time, then class (lower
// first at equal times), then scheduling order (FIFO among simultaneous
// same-class events).
func (e *event) before(o *event) bool {
	//tmedbvet:ignore floateq event-heap comparator: the (t, class, seq) total order must compare times bitwise to stay deterministic
	if e.t != o.t {
		return e.t < o.t
	}
	if e.class != o.class {
		return e.class < o.class
	}
	return e.seq < o.seq
}

// Sim is one simulation run. The zero value is an empty run starting at
// time 0, as New returns.
type Sim struct {
	now   float64
	seq   int64
	queue []event // binary min-heap under before
	steps int
}

// New creates an empty simulation starting at time 0.
func New() *Sim { return &Sim{} }

// Now returns the current simulation time.
func (s *Sim) Now() float64 { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() int { return s.steps }

// At schedules action to run at time t (>= Now) in the default class 0.
// Events scheduled for the same instant run by (class, scheduling
// order).
func (s *Sim) At(t float64, action Action) { s.AtClass(t, 0, action) }

// AtClass schedules action at time t in the given class: at equal
// times, lower classes run first. The broadcast executor uses class 0
// for reception completions and class 1 for transmission starts, so a
// packet received at instant t is available to forward at t.
func (s *Sim) AtClass(t float64, class int, action Action) {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling at %g before now %g", t, s.now))
	}
	if action == nil {
		panic("des: nil action")
	}
	s.seq++
	s.queue = append(s.queue, event{t: t, class: class, seq: s.seq, action: action})
	q := s.queue
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// After schedules action delay seconds from now (class 0).
func (s *Sim) After(delay float64, action Action) { s.At(s.now+delay, action) }

// pop removes and returns the first event.
func (s *Sim) pop() event {
	q := s.queue
	first := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the fired action's closure
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	s.queue = q
	return first
}

// Run executes events in order until the queue empties or the clock
// would pass `until`. It returns the number of events executed in this
// call. Events scheduled exactly at `until` still run.
func (s *Sim) Run(until float64) int {
	ran := 0
	for len(s.queue) > 0 {
		if s.queue[0].t > until {
			break
		}
		e := s.pop()
		s.now = e.t
		e.action(s.now)
		s.steps++
		ran++
	}
	if len(s.queue) == 0 && s.now < until && !math.IsInf(until, 1) {
		s.now = until
	}
	return ran
}

// RunAll executes every scheduled event (including those scheduled by
// earlier events) and returns the count.
func (s *Sim) RunAll() int { return s.Run(math.Inf(1)) }
