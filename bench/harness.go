package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro"
)

// workload is one benchmark workload. The harness sets it up, drives its
// operations in a closed loop of one client and times each one from
// outside.
type workload interface {
	// setup builds the workload's inputs. An untraced run calls it
	// several times to get a steady set-up time; the last set-up serves
	// the loop.
	setup() error
	// batch is the number of consecutive operations that make one
	// sweep: a time-bounded loop runs whole sweeps, so that every run
	// times the same mix.
	batch() int
	// op runs timed operation i.
	op(p pass, i int) error
	// check runs the untimed output check that follows operation i.
	check(i int) error
	// pid is the process that does the workload's work.
	pid() int
	// finish runs the output checks that need the whole loop and returns
	// how many operations they failed.
	finish() (failed int, err error)
	// close stops every process the workload started.
	close()
}

// reporter is implemented by workloads that add their own metrics to m
// after the traced pass. report returns the program-side run report of
// the pass when it does not come from the in-process recorder, else nil.
type reporter interface {
	startTrace() error
	report(wall time.Duration, m map[string]float64) (*tmedb.RunReport, error)
}

// pass is what one operation records into. rec and spans are nil
// outside the traced pass.
type pass struct {
	rec   *tmedb.Recorder
	spans *tracer
	// parent is the span the harness opened around the operation.
	parent int
}

// workers is the worker-pool size of every solver and evaluator call the
// benchmark makes. One worker, and one client issuing operations, keep a
// run to one busy CPU, so the timings do not depend on whether the host
// gives the process a second one at that moment: two workers spread a
// fig-quick sweep by 0.13 over ten traces where one worker spread it by
// 0.06.
const workers = 1

var registry = []struct {
	name string
	new  func(*session) (workload, error)
	// traced is the number of operations in one traced pass.
	traced int
}{
	{"fig-quick", newFigQuick, len(figPanels)},
	{"edit-churn", newEditChurn, 600},
	{"daemon-mixed", newDaemon, 1500},
	{"mc-eval", newMCEval, 400},
}

func workloadNames() []string {
	var out []string
	for _, r := range registry {
		out = append(out, r.name)
	}
	return out
}

// session is one run of one workload.
type session struct {
	name    string
	seed    int64
	seconds float64
	smoke   bool
	root    string
	log     io.Writer
	oracles map[string]string
}

//go:embed testdata/oracles.json
var oracleJSON []byte

// oracle returns the committed digest the outputs must hash to. Only
// seed 1 has committed digests; "" means the run checks that its
// outputs agree with themselves.
func (s *session) oracle(key string) string {
	if s.seed != 1 {
		return ""
	}
	if s.smoke {
		key += "/smoke"
	}
	return s.oracles[key]
}

// every reports whether operation i is one of the sampled ones: the
// first and every n-th after it, or every 5th at smoke size.
func (s *session) every(i, n int) bool {
	if s.smoke {
		n = 5
	}
	return i%n == 0
}

func runWorkload(o options, root string, sp spec, log io.Writer) (result, []string, error) {
	s := &session{name: o.workload, seed: o.seed, seconds: o.seconds, smoke: o.smoke, root: root, log: log}
	if err := json.Unmarshal(oracleJSON, &s.oracles); err != nil {
		return result{}, nil, fmt.Errorf("oracles: %w", err)
	}
	for _, r := range registry {
		if r.name != o.workload {
			continue
		}
		w, err := r.new(s)
		if err != nil {
			return result{}, nil, err
		}
		defer w.close()
		if o.trace != "0" {
			n := r.traced
			if s.smoke {
				n = smokeOps(w)
			}
			return s.traced(w, sp, n, o.trace)
		}
		return s.measure(w, sp)
	}
	return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
}

// smokeOps is the operation count at smoke size: one fig-quick panel,
// ten operations otherwise.
func smokeOps(w workload) int {
	if _, ok := w.(*figQuick); ok {
		return 1
	}
	return 10
}

// measure is the untraced run: the end-to-end metrics.
func (s *session) measure(w workload, sp spec) (result, []string, error) {
	sw := newStopwatch()
	// One set-up can take a few milliseconds, so it runs at least three
	// times and until a second has passed (200 times at most), and the
	// median is reported.
	setups := 0
	for start := time.Now(); setups < 3 || (time.Since(start) < time.Second && setups < 200); {
		if err := sw.time(w.setup); err != nil {
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups++
		if s.smoke {
			break
		}
	}
	n := 0
	if s.smoke {
		n = smokeOps(w)
	}
	st := s.loop(w, pass{}, n, sw)
	failed, err := w.finish()
	if err != nil {
		return result{}, nil, err
	}
	st.failed += failed
	laps := sw.scaled()
	setup, lat := laps[:setups], laps[setups:]
	var sweeps []float64
	for b, j := w.batch(), w.batch(); j <= len(lat); j += b {
		sweeps = append(sweeps, sum(lat[j-b:j]))
	}
	computed := map[string]metric{
		"setup_s":          {percentile(setup, 0.5) / 1000, "s"},
		"sweep_s":          {percentile(sweeps, 0.5) / 1000, "s"},
		"latency_p50_ms":   {percentile(lat, 0.5), "ms"},
		"latency_p90_ms":   {percentile(lat, 0.9), "ms"},
		"throughput_ops_s": {float64(len(lat)) / (sum(lat) / 1000), "ops/s"},
	}
	res := result{Correct: st.failed == 0, Attempted: st.attempted, Failed: st.failed}
	if res.Metrics, err = pick(computed, sp.EndToEnd); err != nil {
		return result{}, nil, err
	}
	lines := []string{fmt.Sprintf("# %s seed %d: %d operations, %d set-ups; reference kernel median %.3f ms (nominal %g ms)",
		s.name, s.seed, st.attempted, setups, sw.refMS(), refKernelMS)}
	for _, m := range sp.EndToEnd {
		lines = append(lines, fmt.Sprintf("%-18s %14.4f %s", m.Name, res.Metrics[m.Name].Value, m.Unit))
	}
	// failed_frac reads 0 on every correct run, so it has no relative
	// bound and is not in BENCHMARK.json; the result line carries it as
	// failed and attempted.
	lines = append(lines, fmt.Sprintf("%-18s %14.4f ratio", "failed_frac", float64(st.failed)/float64(st.attempted)))
	return res, lines, nil
}

// traced is the per-layer run: after one untimed sweep to warm up
// (skipped at smoke size), a reference pass of n untraced operations,
// then n operations with the program's obs hooks and the benchmark's
// spans on, then the stage probe.
func (s *session) traced(w workload, sp spec, n int, dir string) (result, []string, error) {
	if err := w.setup(); err != nil {
		return result{}, nil, fmt.Errorf("set-up: %w", err)
	}
	sw := newStopwatch()
	var warm loopStats
	if !s.smoke {
		warm = s.loop(w, pass{}, min(n, w.batch()), sw)
	}
	ref := s.loop(w, pass{}, n, sw)
	ref.failed += warm.failed
	rw, remote := w.(reporter)
	if remote {
		if err := rw.startTrace(); err != nil {
			return result{}, nil, err
		}
	}
	p := pass{rec: tmedb.NewRecorder(), spans: newTracer()}
	t := time.Now()
	tr := s.loop(w, p, n, sw)
	wall := time.Since(t)
	rep := p.rec.Snapshot(nil)
	own := map[string]float64{}
	if remote {
		r, err := rw.report(wall, own)
		if err != nil {
			return result{}, nil, err
		}
		if r != nil {
			rep = *r
		}
	}
	m := layerMetrics(rep, p.spans)
	if err := probe(s, p.spans, m); err != nil {
		return result{}, nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range own {
		m[k] = v
	}
	laps := sw.scaled()
	refLat, trLat := laps[warm.attempted:warm.attempted+ref.attempted], laps[warm.attempted+ref.attempted:]
	m["obs.overhead_frac"] = percentile(trLat, 0.5)/percentile(refLat, 0.5) - 1
	m["host.ref_kernel_ms"] = sw.refMS()
	peakKB, err := procStatusKB(w.pid(), "VmHWM:")
	if err != nil {
		return result{}, nil, err
	}
	m["process.peak_rss_mb"] = peakKB / 1024
	failed, err := w.finish()
	if err != nil {
		return result{}, nil, err
	}
	stem := s.name + "-seed" + strconv.FormatInt(s.seed, 10)
	if err := p.spans.write(dir, stem, rep); err != nil {
		return result{}, nil, err
	}
	computed := map[string]metric{}
	for k, v := range m {
		computed[k] = metric{v, layerUnit(k)}
	}
	fails := ref.failed + tr.failed + failed
	res := result{Correct: fails == 0, Attempted: ref.attempted + tr.attempted, Failed: fails}
	if res.Metrics, err = pick(computed, sp.PerLayer); err != nil {
		return result{}, nil, err
	}
	lines := []string{fmt.Sprintf("# %s seed %d traced: %d operations, %d failed; spans and trace in %s/%s.*.json",
		s.name, s.seed, res.Attempted, fails, dir, stem)}
	for _, d := range sp.PerLayer {
		lines = append(lines, fmt.Sprintf("%-36s %16.6g %s", d.Name, res.Metrics[d.Name].Value, d.Unit))
	}
	return res, lines, nil
}

// loopStats counts what one closed loop ran.
type loopStats struct {
	attempted int
	failed    int
}

// loop runs a closed loop of one client: n operations, or, when n is 0,
// whole batches of operations for s.seconds: it starts another batch
// only while half the mean batch so far fits in the time left, so the
// loop ends within half a batch of s.seconds (after at least one batch)
// and runs as many batches as are nearest to filling it. sw times each
// operation from outside; its untimed check follows it.
func (s *session) loop(w workload, p pass, n int, sw *stopwatch) loopStats {
	var st loopStats
	start := time.Now()
	limit := time.Duration(s.seconds * float64(time.Second))
	more := func(i int) bool {
		if n > 0 {
			return i < n
		}
		if i == 0 || i%w.batch() != 0 {
			return true
		}
		elapsed := time.Since(start)
		return elapsed+elapsed/time.Duration(2*i/w.batch()) <= limit
	}
	for i := 0; more(i); i++ {
		op := p
		op.parent = p.spans.begin(s.name, 0)
		err := sw.time(func() error { return w.op(op, i) })
		p.spans.end(op.parent)
		if err == nil {
			err = w.check(i)
		}
		st.attempted++
		if err != nil {
			st.failed++
			if st.failed <= 5 {
				fmt.Fprintf(s.log, "bench: %s op %d: %v\n", s.name, i, err)
			}
		}
	}
	return st
}

// layerMetrics derives the per-layer metrics that the program's run
// report and the benchmark's spans determine on every workload. A layer
// a workload does not exercise reads 0.
func layerMetrics(rep tmedb.RunReport, sp *tracer) map[string]float64 {
	c := rep.Counters
	m := map[string]float64{
		"dts.self_ms":                     selfMS(rep.Phases, "dts", "dts-patch"),
		"dts.memo.hit_ratio":              ratio(c["dts.memo.hits"], c["dts.memo.misses"]),
		"dts.patch.hit_ratio":             ratio(c["dts.patch.hits"], c["dts.patch.misses"]),
		"auxgraph.dcs_self_ms":            selfMS(rep.Phases, "dcs-construct"),
		"auxgraph.patch.hit_ratio":        ratio(c["auxgraph.patch.hits"], c["auxgraph.patch.misses"]),
		"graph.bucketq.pops":              float64(c["graph.bucketq.pops"]),
		"graph.bucketq.scanned":           float64(c["graph.bucketq.scanned"]),
		"graph.arena.allocs":              float64(c["graph.arena.allocs"]),
		"steiner.self_ms":                 selfMS(rep.Phases, "steiner"),
		"steiner.level2.scans":            float64(c["steiner.level2.scans"]),
		"steiner.level2.vertices_scanned": float64(c["steiner.level2.vertices_scanned"]),
		"steiner.dijkstra.calls":          float64(c["steiner.dijkstra.fwd"] + c["steiner.dijkstra.bwd"]),
		"nlp.self_ms":                     selfMS(rep.Phases, "nlp-alloc", "assemble", "solve"),
		"nlp.greedy.repairs":              float64(c["nlp.greedy.repairs"]),
		"nlp.descent.sweeps":              float64(c["nlp.descent.sweeps"]),
		"core.replan_ms":                  mean(phaseWallsMS(rep.Phases, "eedcb", "fr-eedcb", "greed", "fr-greed", "rand", "fr-rand")),
		"tveg.edit_ms":                    mean(append(sp.durationsMS("tveg.edit"), phaseWallsMS(rep.Phases, "edit.apply")...)),
		"tveg.cost_cache.hit_ratio":       0, // edit-churn reports its live graphs'
		"sim.evaluate_ms":                 mean(sp.durationsMS("sim.evaluate")),
		"sim.tx_fired":                    float64(c["sim.tx_fired"]),
		"sim.rx":                          float64(c["sim.rx"]),
		"des.execute_ms":                  mean(sp.durationsMS("des.execute")),
		"des.collisions":                  float64(c["des.collisions"]),
		"interference.evaluate_ms":        mean(sp.durationsMS("interference.evaluate")),
		"audit.execute_ms":                mean(sp.durationsMS("audit.execute")),
	}
	m["graph.bucketq.scanned_per_pop"] = 0
	if pops := c["graph.bucketq.pops"]; pops > 0 {
		m["graph.bucketq.scanned_per_pop"] = float64(c["graph.bucketq.scanned"]) / float64(pops)
	}
	m["steiner.level2.pruned_ratio"] = ratio(c["steiner.level2.pruned"], c["steiner.level2.vertices_scanned"]-c["steiner.level2.pruned"])
	for _, p := range figPanels {
		m["figures.panel_ms."+p.name] = mean(sp.durationsMS("figures." + p.name))
	}
	for _, k := range []string{"server_p50_ms", "server_p99_ms", "queue_wait_p99_ms", "cache.hit_ratio", "edit.reuse_ratio", "http_overhead_ms"} {
		m["tmedbd."+k] = 0
	}
	return m
}

// ratio returns hits/(hits+misses), 0 when both are 0.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// procStatusKB reads one kB-valued line, such as VmHWM, of
// /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	status := fmt.Sprintf("/proc/%d/status", pid)
	b, err := os.ReadFile(status)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", status, key)
}

// inProcess provides the methods of workloads that run in this process
// and start no other.
type inProcess struct{}

func (inProcess) pid() int { return os.Getpid() }
func (inProcess) close()   {}
