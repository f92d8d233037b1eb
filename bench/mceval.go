package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"slices"
	"strings"

	"repro"
)

// mcEval plans EEDCB, FR-EEDCB, FR-GREED and FR-RAND schedules during
// set-up and then only executes them: each operation runs the Monte
// Carlo evaluator, the discrete-event executor with interference, the
// interference evaluator and the reference executor on one schedule,
// round-robin; a sweep runs every schedule once. The solver layers do no
// work in the timed loop. Each schedule is planned on its own trace of
// the seed (trace seeds seed, seed+1000, …) restricted to N=20: what an
// operation costs follows the size of its schedule, and with one trace
// for all 24 schedules a sweep took from 0.47 to 0.83 s over ten seeds.
// The seed also drives FR-RAND and every random stream of the executors.
type mcEval struct {
	inProcess
	s     *session
	plans []mcPlan
	// digests[k] is the digest of plan k's first operation; later
	// operations on plan k must repeat it.
	digests []string
}

type mcPlan struct {
	g     *tmedb.Graph
	sched tmedb.Schedule
	src   tmedb.NodeID
}

const (
	mcT0      = 9000.0
	mcAirtime = 0.008
)

func newMCEval(s *session) (workload, error) { return &mcEval{s: s}, nil }

// setup plans the 24 schedules, one for each planner × source {0,3,7} ×
// delay {2000, 4000}, each on its own Rayleigh graph: plan k on the trace
// of seed+1000k. At smoke size it plans the first ten, one for each of
// the ten operations. Fresh graphs per set-up keep the memos from serving
// a repeated set-up.
func (m *mcEval) setup() error {
	cfg := tmedb.DefaultConfig()
	planners := []tmedb.Scheduler{
		tmedb.EEDCB{Level: 2, Workers: workers},
		tmedb.FREEDCB{Level: 2, Workers: workers},
		tmedb.FRGreedy{Workers: workers},
		tmedb.FRRandom{Seed: m.s.seed, Workers: workers},
	}
	n := 24
	if m.s.smoke {
		n = 10
	}
	var plans []mcPlan
	for k := 0; k < n; k++ {
		alg, src, delay := planners[k%4], []tmedb.NodeID{0, 3, 7}[k/4%3], []float64{2000, 4000}[k/12]
		g := tmedb.GenerateTrace(cfg.TraceOpts, m.s.seed+1000*int64(k)).Restrict(20).ToTVEG(0, tmedb.DefaultParams(), tmedb.Rayleigh).EnableCostCache()
		s, err := alg.Schedule(g, src, mcT0, mcT0+delay)
		if err := realErr(err); err != nil {
			return fmt.Errorf("plan %d, %s src %d delay %g: %w", k, alg.Name(), src, delay, err)
		}
		plans = append(plans, mcPlan{g, s, src})
	}
	if m.plans != nil {
		for k := range plans {
			var a, b bytes.Buffer
			tmedb.WriteScheduleJSON(&a, m.plans[k].sched)
			tmedb.WriteScheduleJSON(&b, plans[k].sched)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				return fmt.Errorf("schedule %d differs between set-ups", k)
			}
		}
	}
	m.plans, m.digests = plans, make([]string, len(plans))
	return nil
}

// op runs operation i on plan i mod 24: EvaluateParallel with 2000
// trials on one worker, 200 ExecuteDES realizations with interference,
// EvaluateWithInterference with 200 trials and one ReferenceExecute.
// Its random streams depend only on the seed and the plan, so every
// operation on a plan must give the same digest.
func (m *mcEval) op(p pass, i int) error {
	k := i % len(m.plans)
	pl := m.plans[k]
	seed := m.s.seed*1000 + int64(k)
	h := sha256.New()

	id := p.spans.begin("sim.evaluate", p.parent)
	r := tmedb.EvaluateParallelObs(pl.g, pl.sched, pl.src, 2000, seed, workers, p.rec)
	p.spans.end(id)
	fmt.Fprintf(h, "%x %x %x %x\n", r.MeanDelivery, r.StdDelivery, r.MeanEnergy, r.PlannedEnergy)

	id = p.spans.begin("des.execute", p.parent)
	err := m.execute(h, pl, seed, p.rec)
	p.spans.end(id)
	if err != nil {
		return err
	}

	id = p.spans.begin("interference.evaluate", p.parent)
	d := tmedb.EvaluateWithInterference(pl.g, pl.sched, pl.src, mcAirtime, 200, seed)
	p.spans.end(id)

	id = p.spans.begin("audit.execute", p.parent)
	tr := tmedb.ReferenceExecute(pl.g, pl.sched, pl.src, mcT0, false)
	p.spans.end(id)
	fmt.Fprintf(h, "%x %d %x\n", d, tr.Delivered, tr.ConsumedEnergy)

	got := hex.EncodeToString(h.Sum(nil))
	switch {
	case m.digests[k] == "":
		m.digests[k] = got
	case got != m.digests[k]:
		return fmt.Errorf("plan %d: result digest %s, earlier operations gave %s", k, got, m.digests[k])
	}
	return nil
}

// execute runs the 200 discrete-event realizations of one operation.
func (m *mcEval) execute(h hash.Hash, pl mcPlan, seed int64, rec *tmedb.Recorder) error {
	opts := tmedb.ExecOptions{Interference: true, Airtime: mcAirtime, Obs: rec}
	for j := int64(0); j < 200; j++ {
		res, err := tmedb.ExecuteDES(pl.g, pl.sched, pl.src, mcT0, opts, seed*1000+j)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%d %d %x\n", res.Delivered, res.Collisions, res.ConsumedEnergy)
	}
	return nil
}

func (m *mcEval) batch() int      { return len(m.plans) }
func (m *mcEval) check(int) error { return nil }

// finish compares the digests of the plans with the committed oracle,
// which at seed 1 covers every plan; a run that did not reach every plan
// is only checked for self-consistency.
func (m *mcEval) finish() (int, error) {
	want := m.s.oracle("mc-eval")
	if slices.Contains(m.digests, "") {
		return 0, nil
	}
	sum := sha256.Sum256([]byte(strings.Join(m.digests, "\n")))
	got := hex.EncodeToString(sum[:])
	switch {
	case want == "":
		fmt.Fprintf(m.s.log, "bench: mc-eval seed %d results sha256 %s\n", m.s.seed, got)
	case got != want:
		fmt.Fprintf(m.s.log, "bench: mc-eval results sha256 %s, want %s\n", got, want)
		return 1, nil
	}
	return 0, nil
}
