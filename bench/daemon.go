package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
)

// daemon drives a tmedbd process over its HTTP API. One keep-alive
// client runs a closed loop, because tmedbd callers wait for their
// schedule. Its requests come in shuffled blocks of ten, the workload's
// batch: four repeats of 16 keys primed during set-up (cache hits), five
// unique cold solves and one /edit that extends the client's edit
// sequence by one op. With five hits in ten, the median request sat on
// the boundary between the hits (median 0.7 ms) and the solves (from
// 1.4 ms), so it read the slowest hit or the fastest solve, and spread
// by 0.14 over ten seeds where the 90th percentile spread by 0.03; with
// four, it is a solve.
type daemon struct {
	s        *session
	bin      string
	cmd      *exec.Cmd
	drained  chan struct{} // closed once the daemon's stderr reaches EOF
	url      string
	client   *http.Client
	hot      []solveReq
	hotSched [][]byte // the schedule bytes each hot key was primed with
	st       *stream

	samples []coldSample // every 25th cold response, for the facade oracle
	// The traced pass folds the per-request run reports into folded and
	// records the client-side HTTP round-trip times.
	traceStart time.Time
	folded     tmedb.RunReport
	clientMS   []float64
	before     map[string]float64 // /metrics when the traced pass began
}

type synthetic struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// solveReq is the body of POST /solve.
type solveReq struct {
	Alg       string    `json:"alg"`
	Model     string    `json:"model"`
	Synthetic synthetic `json:"synthetic"`
	Src       int       `json:"src"`
	T0        float64   `json:"t0"`
	Delay     float64   `json:"delay"`
	Report    bool      `json:"report,omitempty"`
}

// editReq is the body of POST /edit: a solve plus the full edit
// sequence from the base trace.
type editReq struct {
	solveReq
	Edits []editSpec `json:"edits"`
}

type editSpec struct {
	Op      string  `json:"op"`
	I       int     `json:"i"`
	J       int     `json:"j"`
	Start   float64 `json:"start"`
	End     float64 `json:"end"`
	Dist    float64 `json:"dist,omitempty"`
	ToStart float64 `json:"to_start,omitempty"`
	ToEnd   float64 `json:"to_end,omitempty"`
}

type solveResp struct {
	Schedule json.RawMessage  `json:"schedule"`
	Cache    string           `json:"cache"`
	Report   *tmedb.RunReport `json:"report"`
}

type coldSample struct {
	req   solveReq
	sched []byte
}

func newDaemon(s *session) (workload, error) {
	bin := filepath.Join(s.root, ".bench_build", "tmedbd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tmedbd")
	build.Dir, build.Stdout, build.Stderr = s.root, s.log, s.log
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build tmedbd: %w", err)
	}
	d := &daemon{
		s:   s,
		bin: bin,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   time.Minute,
		},
	}
	// The hot keys are the same on every seed. The timed loop only sees
	// them as cache hits; priming them is the set-up, whose time moved by
	// 1.4x between two seeds' draws of 16 keys.
	rng := rand.New(rand.NewSource(0))
	nhot := 16
	if s.smoke {
		nhot = 4
	}
	for len(d.hot) < nhot {
		d.hot = append(d.hot, coldReq(rng, 0.25))
	}
	return d, nil
}

// coldReq draws a solve from the cold-request distribution, each on its
// own synthetic trace. frac is the fractional part of t0, which keeps
// the hot keys and the cold requests apart.
func coldReq(rng *rand.Rand, frac float64) solveReq {
	n := []int{15, 20}[rng.Intn(2)]
	return solveReq{
		Alg:       []string{"eedcb", "fr-eedcb", "greed", "fr-greed"}[rng.Intn(4)],
		Model:     []string{"static", "rayleigh"}[rng.Intn(2)],
		Synthetic: synthetic{N: n, Seed: rng.Int63n(1 << 30)},
		Src:       rng.Intn(n),
		T0:        5000 + float64(rng.Intn(7000)) + frac,
		Delay:     float64(1500 + rng.Intn(1501)),
	}
}

// setup starts a fresh daemon and primes the hot keys.
func (d *daemon) setup() error {
	d.close()
	if err := d.start(); err != nil {
		return err
	}
	d.hotSched = make([][]byte, len(d.hot))
	for k, req := range d.hot {
		resp, err := d.post("/solve", req)
		if err != nil {
			return fmt.Errorf("prime hot key %d: %w", k, err)
		}
		d.hotSched[k] = resp.Schedule
	}
	d.st = newStream(d.s.seed)
	d.samples = nil
	return nil
}

// start runs the daemon with its default flags on a kernel-chosen port.
func (d *daemon) start() error {
	cmd := exec.Command(d.bin, "-addr", "127.0.0.1:0")
	// The daemon dies with the benchmark even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	drained := make(chan struct{})
	d.cmd, d.drained = cmd, drained
	addr := make(chan string, 1)
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "tmedbd: serving on http://"); ok {
				addr <- a
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return nil
	case <-drained:
		d.close()
		return errors.New("tmedbd exited before serving")
	case <-time.After(30 * time.Second):
		d.close()
		return errors.New("tmedbd did not start serving within 30s")
	}
}

// close stops the daemon, if one runs, and waits for it to exit. The
// signal fails only for a daemon that already exited, and a stopped
// daemon's exit status reports nothing the run needs.
func (d *daemon) close() {
	if d.cmd == nil {
		return
	}
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
	d.cmd = nil
}

func (d *daemon) batch() int { return 10 }

func (d *daemon) op(p pass, _ int) error {
	st := d.st
	traced := p.rec != nil
	var (
		resp solveResp
		err  error
	)
	sent := time.Now()
	switch kind := st.next(); kind {
	case 'h':
		k := st.rng.Intn(len(d.hot))
		req := d.hot[k]
		req.Report = traced
		if resp, err = d.post("/solve", req); err != nil {
			return err
		}
		if resp.Cache != "hit" || !bytes.Equal(resp.Schedule, d.hotSched[k]) {
			return fmt.Errorf("hot key %d: cache %q, schedule differs from the primed one: %t", k, resp.Cache, !bytes.Equal(resp.Schedule, d.hotSched[k]))
		}
	case 'c':
		req := st.cold()
		req.Report = traced
		if resp, err = d.post("/solve", req); err != nil {
			return err
		}
		if d.s.every(st.colds, 25) {
			d.samples = append(d.samples, coldSample{req, resp.Schedule})
		}
		st.colds++
	default:
		var req editReq
		if req, err = st.edit(); err != nil {
			return err
		}
		req.Report = traced
		if resp, err = d.post("/edit", req); err != nil {
			return err
		}
	}
	if traced {
		d.fold(resp.Report, sent, time.Since(sent))
	}
	return nil
}

// post sends one request and decodes a 200 answer.
func (d *daemon) post(path string, body any) (solveResp, error) {
	var out solveResp
	b, err := json.Marshal(body)
	if err != nil {
		return out, err
	}
	resp, err := d.client.Post(d.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return out, json.Unmarshal(data, &out)
}

// fold adds one traced request's run report, placed at the request's
// offset into the pass, to the folded report.
func (d *daemon) fold(rep *tmedb.RunReport, sent time.Time, rtt time.Duration) {
	d.clientMS = append(d.clientMS, float64(rtt)/float64(time.Millisecond))
	if rep == nil {
		return
	}
	off := float64(sent.Sub(d.traceStart)) / float64(time.Millisecond)
	d.folded.Phases = append(d.folded.Phases, shift(rep.Phases, off)...)
	for k, v := range rep.Counters {
		d.folded.Counters[k] += v
	}
	d.folded.Pools = append(d.folded.Pools, rep.Pools...)
}

func shift(ps []obs.PhaseReport, off float64) []obs.PhaseReport {
	out := make([]obs.PhaseReport, len(ps))
	for i, p := range ps {
		p.StartMS += off
		p.Children = shift(p.Children, off)
		out[i] = p
	}
	return out
}

func (d *daemon) check(int) error { return nil }
func (d *daemon) pid() int        { return d.cmd.Process.Pid }

// finish re-solves every sampled cold request in this process through
// the facade and counts the responses whose schedule is not
// byte-identical to it.
func (d *daemon) finish() (int, error) {
	failed := 0
	for _, smp := range d.samples {
		want, err := facadeSchedule(smp.req)
		if err != nil {
			return failed, err
		}
		got := smp.sched
		if smp.req.Report {
			// A traced request's meta carries its phase times; the
			// schedule proper must still match.
			if got, err = withoutPhaseTimes(got); err != nil {
				return failed, err
			}
		}
		if !bytes.Equal(got, want) {
			failed++
			fmt.Fprintf(d.s.log, "bench: daemon-mixed: %+v: schedule differs from the facade solve\n", smp.req)
		}
	}
	return failed, nil
}

// facadeSchedule solves req in this process the way tmedbd's direct
// path does and encodes it as the daemon's response carries it.
func facadeSchedule(req solveReq) ([]byte, error) {
	model := tmedb.Static
	if req.Model == "rayleigh" {
		model = tmedb.Rayleigh
	}
	g := tmedb.GenerateTrace(tmedb.TraceOptions{N: req.Synthetic.N}, req.Synthetic.Seed).ToTVEG(0, tmedb.DefaultParams(), model)
	var alg tmedb.Scheduler
	switch req.Alg {
	case "eedcb":
		alg = tmedb.EEDCB{Level: 2, Workers: 1}
	case "fr-eedcb":
		alg = tmedb.FREEDCB{Level: 2, Workers: 1}
	case "greed":
		alg = tmedb.Greedy{}
	default:
		alg = tmedb.FRGreedy{Workers: 1}
	}
	s, err := tmedb.ScheduleWithContext(context.Background(), alg, g, tmedb.NodeID(req.Src), req.T0, req.T0+req.Delay)
	if err := realErr(err); err != nil {
		return nil, err
	}
	meta := &tmedb.ScheduleMeta{
		Algorithm: req.Alg,
		Model:     req.Model,
		Trace:     fmt.Sprintf("synthetic(n=%d,seed=%d)", req.Synthetic.N, req.Synthetic.Seed),
		Src:       req.Src,
		T0:        req.T0,
		Deadline:  req.T0 + req.Delay,
	}
	var buf, out bytes.Buffer
	if err := tmedb.WriteScheduleJSONMeta(&buf, s, meta); err != nil {
		return nil, err
	}
	err = json.Compact(&out, buf.Bytes())
	return out.Bytes(), err
}

func withoutPhaseTimes(raw []byte) ([]byte, error) {
	s, meta, err := tmedb.ReadScheduleJSONMeta(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if meta != nil {
		meta.PhaseMS = nil
	}
	var buf, out bytes.Buffer
	if err := tmedb.WriteScheduleJSONMeta(&buf, s, meta); err != nil {
		return nil, err
	}
	err = json.Compact(&out, buf.Bytes())
	return out.Bytes(), err
}

// startTrace snapshots /metrics so the traced pass's counters are
// deltas.
func (d *daemon) startTrace() error {
	var err error
	d.before, err = d.scrape()
	d.traceStart = time.Now()
	d.folded = tmedb.RunReport{Counters: map[string]int64{}}
	return err
}

// report returns the folded per-request reports of the traced pass and
// adds the daemon's own metrics from a final /metrics scrape.
func (d *daemon) report(wall time.Duration, m map[string]float64) (*tmedb.RunReport, error) {
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(k string) int64 { return int64(after[k] - d.before[k]) }
	m["tmedbd.server_p50_ms"] = after[`tmedbd_latency_ms{quantile="0.5"}`]
	m["tmedbd.server_p99_ms"] = after[`tmedbd_latency_ms{quantile="0.99"}`]
	m["tmedbd.queue_wait_p99_ms"] = after[`tmedbd_queue_wait_ms{quantile="0.99"}`]
	m["tmedbd.cache.hit_ratio"] = ratio(delta("tmedbd_cache_hits"), delta("tmedbd_cache_misses"))
	m["tmedbd.edit.reuse_ratio"] = ratio(delta("tmedbd_edit_reused"), delta("tmedbd_edit_applied"))
	m["tmedbd.http_overhead_ms"] = percentile(d.clientMS, 0.5) - m["tmedbd.server_p50_ms"]
	d.folded.WallMS = float64(wall) / float64(time.Millisecond)
	return &d.folded, nil
}

// scrape reads the daemon's Prometheus exposition into sample → value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// stream is the client's seeded request sequence.
type stream struct {
	seed  int64
	rng   *rand.Rand
	block []byte // kinds left in the current block: 'h' hot, 'c' cold, 'e' edit
	seen  map[solveReq]bool
	colds int
	// The client's current edit sequence, the synthetic N=20 base trace
	// it edits, the base graph the edits are drawn against, and how many
	// sequences the client has started.
	edits []churnEdit
	base  synthetic
	baseG *tmedb.Graph
	seqs  int64
}

// seqOps is the length of an edit sequence: ten add → retime → remove
// cycles. The client then starts a new sequence on a new base trace.
const seqOps = 30

func newStream(seed int64) *stream {
	return &stream{
		seed: seed,
		rng:  rand.New(rand.NewSource(seed * 10)),
		seen: map[solveReq]bool{},
	}
}

func (st *stream) next() byte {
	if len(st.block) == 0 {
		st.block = []byte("hhhhccccce")
		st.rng.Shuffle(len(st.block), func(i, j int) { st.block[i], st.block[j] = st.block[j], st.block[i] })
	}
	k := st.block[0]
	st.block = st.block[1:]
	return k
}

// cold draws a solve request the client has not sent before.
func (st *stream) cold() solveReq {
	for {
		req := coldReq(st.rng, 0)
		if !st.seen[req] {
			st.seen[req] = true
			return req
		}
	}
}

// edit extends the client's edit sequence by one op of edit-churn's
// add → retime → remove cycle and returns the /edit request for the
// whole sequence. After seqOps ops the client starts a new sequence on
// a new base trace, so the request size and the daemon's work per edit,
// a fresh live instance per sequence included, do not grow with the
// length of the run, and a run's edits cost what many base traces cost
// on average rather than what one does.
func (st *stream) edit() (editReq, error) {
	if st.baseG == nil || len(st.edits) == seqOps {
		st.base = synthetic{N: 20, Seed: 1_000_000 + 1000*st.seed + st.seqs}
		st.baseG = tmedb.GenerateTrace(tmedb.TraceOptions{N: st.base.N}, st.base.Seed).ToTVEG(0, tmedb.DefaultParams(), tmedb.Static)
		st.edits = st.edits[:0]
		st.seqs++
	}
	var last churnEdit
	if len(st.edits) > 0 {
		last = st.edits[len(st.edits)-1]
	}
	ed, err := nextEdit(st.rng, st.baseG, last, len(st.edits))
	if err != nil {
		return editReq{}, err
	}
	st.edits = append(st.edits, ed)
	req := editReq{solveReq: solveReq{Alg: "eedcb", Model: "static", Synthetic: st.base, T0: churnT0, Delay: churnDeadline - churnT0}}
	for _, e := range st.edits {
		req.Edits = append(req.Edits, e.spec())
	}
	return req, nil
}

// spec is the edit as /edit takes it.
func (e churnEdit) spec() editSpec {
	s := editSpec{Op: e.op, J: int(e.j), Start: e.iv.Start, End: e.iv.End}
	switch e.op {
	case "add":
		s.Dist = churnDist
	case "retime":
		s.ToStart, s.ToEnd = e.to.Start, e.to.End
	}
	return s
}
