package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro"
	"repro/internal/tveg"
)

// editChurn keeps churnGraphs live N=20 static graphs and each round
// applies one contact edit to one of them and replans EEDCB on it, so
// every replan derives its DTS and auxiliary-graph core from the graph's
// previous version instead of building them cold. One operation is one
// edit plus one replan. The rounds run add → retime → remove cycles,
// each cycle on the next graph in turn, and a sweep is one cycle on
// every graph. Eight graphs stay within the DTS and auxiliary-graph
// memos (32 entries each): when a graph's turn comes again, 21 solves
// later, its previous version is still memoized.
//
// After each sweep, one graph retires and a fresh one, from the seed's
// next trace (trace seeds seed, seed+1000, …), takes its place, solved
// cold once outside the timed operations. A round on one trace's graph
// can take twice as long as on another's, and with the same eight graphs
// for the whole run the median round spread by 0.11 over ten seeds; a
// run now works on about thirty.
type editChurn struct {
	inProcess
	s      *session
	graphs []*churnGraph
	traces int64 // traces taken so far
	rng    *rand.Rand
	sched  tmedb.Schedule // the last replan
	err    error
	// retired holds the cost-cache hits and misses of the graphs that
	// left the rotation, and cache0 those of every graph so far when the
	// traced pass began.
	retired, cache0 [2]int64
}

// churnGraph is one live graph of edit-churn.
type churnGraph struct {
	tr    *tmedb.Trace
	base  *tmedb.Graph // the unedited graph, which every cycle returns to
	g     *tmedb.Graph
	edits []churnEdit // every edit applied to g since set-up, in order
}

// churnEdit is one edit of a (0, j) contact.
type churnEdit struct {
	op     string // "add", "retime" or "remove"
	j      tmedb.NodeID
	iv, to tmedb.Interval
}

const (
	churnGraphs            = 8
	churnT0, churnDeadline = 9000.0, 11000.0
	churnDist              = 7.0
	// An added contact lasts churnLen seconds and its retime moves it
	// churnShift seconds later.
	churnLen, churnShift = 180.0, 90.0
)

// nextEdit returns edit i of a sequence of add → retime → remove cycles
// on g, where last is edit i-1. The add draws a (0, j) contact starting
// in [9000, 10590] whose window and retime target overlap no contact the
// pair has; the retime moves it churnShift later and the remove deletes
// it. So every edit applies, and every cycle leaves g with exactly the
// contacts it had before, however many cycles ran before it. g is only
// read.
func nextEdit(rng *rand.Rand, g *tmedb.Graph, last churnEdit, i int) (churnEdit, error) {
	switch i % 3 {
	case 0:
		for try := 0; try < 1000; try++ {
			j := tmedb.NodeID(1 + rng.Intn(19))
			start := churnT0 + 10*float64(rng.Intn(160))
			span := tmedb.Interval{Start: start, End: start + churnLen + churnShift}
			if !slices.ContainsFunc(g.Segments(0, j), func(s tveg.Segment) bool { return s.Iv.Overlaps(span) }) {
				return churnEdit{op: "add", j: j, iv: tmedb.Interval{Start: start, End: start + churnLen}}, nil
			}
		}
		return churnEdit{}, errors.New("no free (0, j) window for an added contact")
	case 1:
		to := tmedb.Interval{Start: last.iv.Start + churnShift, End: last.iv.End + churnShift}
		return churnEdit{op: "retime", j: last.j, iv: last.iv, to: to}, nil
	default:
		return churnEdit{op: "remove", j: last.j, iv: last.to}, nil
	}
}

// apply runs the edit on g.
func (e churnEdit) apply(g *tmedb.Graph) error {
	switch e.op {
	case "add":
		g.AddContact(0, e.j, e.iv, churnDist)
	case "retime":
		_, err := g.RetimeChannel(0, e.j, e.iv, e.to)
		return err
	default:
		g.RemoveContact(0, e.j, e.iv)
	}
	return nil
}

func newEditChurn(s *session) (workload, error) {
	e := &editChurn{s: s}
	for k := 0; k < churnGraphs; k++ {
		e.graphs = append(e.graphs, &churnGraph{tr: e.nextTrace()})
	}
	return e, nil
}

func (e *editChurn) nextTrace() *tmedb.Trace {
	tr := tmedb.GenerateTrace(tmedb.DefaultConfig().TraceOpts, e.s.seed+1000*e.traces).Restrict(20)
	e.traces++
	return tr
}

func planner(rec *tmedb.Recorder) tmedb.EEDCB {
	return tmedb.EEDCB{Level: 2, Workers: workers, Obs: rec}
}

func (c *churnGraph) graph() *tmedb.Graph {
	return c.tr.ToTVEG(0, tmedb.DefaultParams(), tmedb.Static).EnableCostCache()
}

// reset builds the graph's base and live versions from its trace and
// solves it cold once, so that its first round already derives from a
// memoized version.
func (c *churnGraph) reset() error {
	c.base, c.g, c.edits = c.graph(), c.graph(), nil
	_, err := planner(nil).Schedule(c.g, 0, churnT0, churnDeadline)
	return realErr(err)
}

// setup builds the first live graphs.
func (e *editChurn) setup() error {
	e.rng = rand.New(rand.NewSource(e.s.seed))
	for _, c := range e.graphs {
		if err := c.reset(); err != nil {
			return err
		}
	}
	return nil
}

func (e *editChurn) batch() int { return 3 * churnGraphs }

// on returns the graph round i works on.
func (e *editChurn) on(i int) *churnGraph { return e.graphs[i/3%churnGraphs] }

func (e *editChurn) op(p pass, i int) error {
	c := e.on(i)
	var last churnEdit
	if len(c.edits) > 0 {
		last = c.edits[len(c.edits)-1]
	}
	ed, err := nextEdit(e.rng, c.base, last, i)
	if err != nil {
		return err
	}
	id := p.spans.begin("tveg.edit", p.parent)
	err = ed.apply(c.g)
	p.spans.end(id)
	if err != nil {
		return err
	}
	c.edits = append(c.edits, ed)

	id = p.spans.begin("core.replan", p.parent)
	e.sched, e.err = planner(p.rec).Schedule(c.g, 0, churnT0, churnDeadline)
	p.spans.end(id)
	return realErr(e.err)
}

// check runs after round i. At the end of a cycle the edited pair must
// have its base contacts again, and every 50th replan must be
// byte-identical to a cold solve of a graph rebuilt from the trace by
// replaying the graph's edits. At the end of a sweep, a fresh graph
// replaces one of the live ones.
func (e *editChurn) check(i int) error {
	if err := e.verify(i); err != nil {
		return err
	}
	if (i+1)%e.batch() != 0 {
		return nil
	}
	c := e.graphs[i/e.batch()%churnGraphs]
	e.retired = add(e.retired, cacheCounts(c.g))
	*c = churnGraph{tr: e.nextTrace()}
	return c.reset()
}

func (e *editChurn) verify(i int) error {
	c := e.on(i)
	if i%3 == 2 {
		j := c.edits[len(c.edits)-1].j
		if got, want := c.g.Segments(0, j), c.base.Segments(0, j); !slices.Equal(got, want) {
			return fmt.Errorf("after round %d, (0,%d) has contacts %v, the base has %v", i, j, got, want)
		}
	}
	if !e.s.every(i, 50) {
		return nil
	}
	g := c.graph()
	for _, ed := range c.edits {
		if err := ed.apply(g); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
	}
	cold, err := planner(nil).Schedule(g, 0, churnT0, churnDeadline)
	if fmt.Sprint(err) != fmt.Sprint(e.err) {
		return fmt.Errorf("replan error %v, cold solve error %v", e.err, err)
	}
	var a, b bytes.Buffer
	if err := tmedb.WriteScheduleJSON(&a, e.sched); err != nil {
		return err
	}
	if err := tmedb.WriteScheduleJSON(&b, cold); err != nil {
		return err
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		return fmt.Errorf("replan after %d edits differs from a cold solve of the rebuilt graph", len(c.edits))
	}
	return nil
}

func (e *editChurn) finish() (int, error) { return 0, nil }

// startTrace and report make the cost caches of the run's graphs, over
// the traced pass, the source of tveg.cost_cache.hit_ratio on this
// workload.
func (e *editChurn) startTrace() error {
	e.cache0 = e.cacheCounts()
	return nil
}

func (e *editChurn) report(_ time.Duration, m map[string]float64) (*tmedb.RunReport, error) {
	c := e.cacheCounts()
	m["tveg.cost_cache.hit_ratio"] = ratio(c[0]-e.cache0[0], c[1]-e.cache0[1])
	return nil, nil
}

// cacheCounts returns the cost-cache hits and misses of every graph the
// run has had.
func (e *editChurn) cacheCounts() [2]int64 {
	sum := e.retired
	for _, c := range e.graphs {
		sum = add(sum, cacheCounts(c.g))
	}
	return sum
}

// cacheCounts returns g's cost-cache hits and misses, minimum-cost and
// DCS lookups together.
func cacheCounts(g *tmedb.Graph) [2]int64 {
	st, _ := g.CostCacheStats()
	return [2]int64{st.MinCostHits + st.DCSHits, st.MinCostMisses + st.DCSMisses}
}

func add(a, b [2]int64) [2]int64 { return [2]int64{a[0] + b[0], a[1] + b[1]} }

// realErr drops the partial-coverage error a planner returns together
// with a valid schedule.
func realErr(err error) error {
	var inc *tmedb.IncompleteError
	if errors.As(err, &inc) {
		return nil
	}
	return err
}
