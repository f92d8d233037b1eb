package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/tveg"
)

// instance is one solve workload the soak compares against a direct
// facade call.
type instance struct {
	alg, model string
	n          int
	seed       int64
	src        int
}

const (
	soakT0    = 9000.0
	soakDelay = 2000.0
)

// expected plans the instance directly through the facade — the ground
// truth the daemon must match byte for byte.
func expected(t *testing.T, in instance) tmedb.Schedule {
	t.Helper()
	tr := tmedb.GenerateTrace(tmedb.TraceOptions{N: in.n}, in.seed)
	model, err := tveg.ParseModel(in.model)
	if err != nil {
		t.Fatal(err)
	}
	g := tr.ToTVEG(0, tmedb.DefaultParams(), model)
	alg, err := core.New(in.alg, 2, in.seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := alg.Schedule(g, tmedb.NodeID(in.src), soakT0, soakT0+soakDelay)
	var inc *tmedb.IncompleteError
	if err != nil && !errors.As(err, &inc) {
		t.Fatalf("facade solve %+v: %v", in, err)
	}
	return sched
}

func solveBody(in instance, extra func(*solveRequest)) []byte {
	req := solveRequest{
		Alg:       in.alg,
		Model:     in.model,
		Synthetic: &syntheticRef{N: in.n, Seed: in.seed},
		Src:       in.src,
		T0:        soakT0,
		Delay:     soakDelay,
		Seed:      in.seed,
	}
	if extra != nil {
		extra(&req)
	}
	b, _ := json.Marshal(req)
	return b
}

func postSolve(client *http.Client, url string, body []byte) (int, solveResponse, error) {
	resp, err := client.Post(url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, solveResponse{}, err
	}
	defer resp.Body.Close()
	var sr solveResponse
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, sr, err
	}
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			return resp.StatusCode, sr, fmt.Errorf("bad solve response: %w (%s)", err, data)
		}
	}
	return resp.StatusCode, sr, nil
}

// scheduleBytes canonicalizes a schedule for byte-identity comparison.
func scheduleBytes(t *testing.T, s tmedb.Schedule) []byte {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func decodeSchedule(t *testing.T, sr solveResponse) tmedb.Schedule {
	t.Helper()
	sched, _, err := tmedb.ReadScheduleJSONMeta(bytes.NewReader(sr.Schedule))
	if err != nil {
		t.Fatalf("response schedule: %v", err)
	}
	return sched
}

// checkNoLeaks asserts the goroutine count settles back to the baseline
// after the daemon drains. Settling is polled: runtime-internal and
// keep-alive teardown goroutines may need a moment to exit.
func checkNoLeaks(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var n int
	for time.Now().Before(deadline) {
		n = runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak after drain: %d -> %d\n%s", base, n, buf[:runtime.Stack(buf, true)])
}

// TestSoakMixedWorkloads hammers the daemon with concurrent clients
// running mixed workloads — cache hits, cold solves, deadline expiries,
// client cancellations — and asserts every full-quality schedule is
// byte-identical to a direct facade solve, every budgeted solve still
// answers (degraded, not erroring), and the process drains without
// leaking goroutines.
func TestSoakMixedWorkloads(t *testing.T) {
	base := runtime.NumGoroutine()

	cfg := defaultConfig()
	cfg.maxConcurrent = 2
	// A queue this deep never sheds at 8 clients (shedding has its own
	// dedicated test below), so every schedule here is full-quality and
	// must match the facade byte for byte.
	cfg.maxQueue = 64
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())

	instances := []instance{
		{alg: "eedcb", model: "static", n: 10, seed: 1, src: 0},
		{alg: "eedcb", model: "static", n: 10, seed: 2, src: 3},
		{alg: "fr-eedcb", model: "rayleigh", n: 10, seed: 1, src: 0},
		{alg: "greed", model: "static", n: 12, seed: 4, src: 1},
		{alg: "fr-greed", model: "rayleigh", n: 10, seed: 5, src: 2},
		{alg: "rand", model: "static", n: 12, seed: 6, src: 0},
		{alg: "fr-rand", model: "nakagami", n: 10, seed: 7, src: 1},
	}
	want := make([][]byte, len(instances))
	for i, in := range instances {
		want[i] = scheduleBytes(t, expected(t, in))
	}

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*2)

	// Telemetry under load: collect the req_id of every completed (200)
	// solve for the flight-recorder exactly-once check, and scrape
	// /metrics concurrently — every scrape must parse as valid
	// Prometheus exposition while solves are in flight.
	var completedMu sync.Mutex
	var completed []string
	scrapeStop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		for {
			select {
			case <-scrapeStop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				errs <- fmt.Errorf("metrics scrape: %w", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs <- fmt.Errorf("metrics scrape: %w", err)
				return
			}
			if err := validateExposition(string(body)); err != nil {
				errs <- fmt.Errorf("metrics scrape mid-soak: %w", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	recordCompleted := func(sr solveResponse) {
		completedMu.Lock()
		completed = append(completed, sr.ReqID)
		completedMu.Unlock()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Per-client transport: keeps the clients genuinely concurrent
			// instead of multiplexed through one shared connection pool.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr}
			for r := 0; r < rounds; r++ {
				i := (c + r) % len(instances)
				switch r % 4 {
				case 0, 1: // cold solves and cache hits on contended keys
					code, sr, err := postSolve(client, ts.URL, solveBody(instances[i], nil))
					if err != nil {
						errs <- err
						continue
					}
					if code != http.StatusOK {
						errs <- fmt.Errorf("solve %v: status %d", instances[i], code)
						continue
					}
					if sr.ShedRungs > 0 {
						errs <- fmt.Errorf("solve %v shed %d rungs with an empty queue", instances[i], sr.ShedRungs)
						continue
					}
					recordCompleted(sr)
					if got := scheduleBytes(t, decodeSchedule(t, sr)); !bytes.Equal(got, want[i]) {
						errs <- fmt.Errorf("solve %v (%s): schedule differs from facade\n got %s\nwant %s",
							instances[i], sr.Cache, got, want[i])
					}
				case 2: // deadline expiry: 1ms budget must degrade, never 5xx
					code, sr, err := postSolve(client, ts.URL, solveBody(instances[i], func(q *solveRequest) {
						q.DeadlineMS = 1
						q.NoCache = true
					}))
					if err != nil {
						errs <- err
						continue
					}
					if code != http.StatusOK {
						errs <- fmt.Errorf("budgeted solve %v: status %d, want degraded 200", instances[i], code)
						continue
					}
					recordCompleted(sr)
					if sr.Rung == "" {
						errs <- fmt.Errorf("budgeted solve %v: no rung in response", instances[i])
					}
				case 3: // client cancellation mid-queue/mid-solve
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
					req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/solve",
						bytes.NewReader(solveBody(instances[i], func(q *solveRequest) { q.NoCache = true })))
					resp, err := client.Do(req)
					if err == nil {
						resp.Body.Close()
					}
					cancel()
				}
			}
		}(c)
	}
	wg.Wait()
	close(scrapeStop)
	scrapeWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cache effectiveness: instances[0] was solved unshed during the soak
	// (client 0, round 0), so a final repeat must be a hit.
	code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(instances[0], nil))
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-soak solve: code=%d err=%v", code, err)
	}
	if sr.Cache != "hit" {
		t.Errorf("post-soak repeat of instances[0] was a %q, want hit", sr.Cache)
	}
	recordCompleted(sr)
	rep := srv.proc.Snapshot(nil)
	if rep.Counters["tmedbd.solved"] == 0 {
		t.Error("fleet counters recorded zero solves")
	}
	if rep.Rollings == nil {
		t.Error("fleet report has no rolling latency windows")
	}

	// Flight-recorder consistency: every completed request's record was
	// published before its response bytes, so by now each collected
	// req_id appears in /debug/requests exactly once (well under the
	// default 256-slot capacity, nothing was evicted).
	flight := fetchFlight(t, ts.URL)
	seen := map[string]int{}
	for _, r := range flight.Requests {
		seen[r.ID]++
	}
	for _, id := range completed {
		if id == "" {
			t.Error("completed solve carried no req_id")
			continue
		}
		if seen[id] != 1 {
			t.Errorf("req_id %s appears %d times in the flight recorder, want exactly once", id, seen[id])
		}
	}
	for i := 1; i < len(flight.Requests); i++ {
		if flight.Requests[i].Seq <= flight.Requests[i-1].Seq {
			t.Errorf("flight snapshot out of order at %d: seq %d then %d",
				i, flight.Requests[i-1].Seq, flight.Requests[i].Seq)
		}
	}

	ts.Close()
	checkNoLeaks(t, base)
}

// flightPageJSON mirrors the /debug/requests envelope for decoding.
type flightPageJSON struct {
	Cap      int                   `json:"cap"`
	Recorded uint64                `json:"recorded"`
	Requests []tmedb.RequestRecord `json:"requests"`
}

func fetchFlight(t *testing.T, url string) flightPageJSON {
	t.Helper()
	resp, err := http.Get(url + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page flightPageJSON
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("flight page: %v", err)
	}
	return page
}

// expositionLine matches one Prometheus text-format sample:
// name{labels} value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// validateExposition checks that body parses as Prometheus text
// exposition format 0.0.4 (comment/TYPE/HELP lines or samples).
func validateExposition(body string) error {
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			return fmt.Errorf("malformed exposition line: %q", line)
		}
	}
	return nil
}

// TestOverloadShedsInsteadOfErroring pins the shedding contract on a
// one-slot daemon: queued requests answer with lowered rungs (200 +
// shed_rungs), every shed schedule is still delay- and ε-feasible on its
// instance, and only a queue past maxQueue hits the 503 backstop. The
// slot is occupied directly through the semaphore, so queue depths — and
// therefore shed levels — are deterministic regardless of solve speed
// (a timing-based burst hides shedding entirely once solves outpace
// connection dials).
func TestOverloadShedsInsteadOfErroring(t *testing.T) {
	base := runtime.NumGoroutine()

	cfg := defaultConfig()
	cfg.maxConcurrent = 1
	cfg.maxQueue = 8
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())

	// Occupy the only solve slot; every request below must queue behind
	// it, so the k-th arrival observes depth k-1.
	srv.sem <- struct{}{}

	waitDepth := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for srv.waiting.Load() != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth stuck at %d, want %d", srv.waiting.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Fill the queue to one below capacity: depths 0..6 map to shed
	// levels 0,0,1,1,2,2,3 under maxQueue=8 and a 4-rung ladder.
	queued := cfg.maxQueue - 1
	type result struct {
		code int
		sr   solveResponse
		in   instance
		err  error
	}
	results := make(chan result, queued+1)
	post := func(i int) {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		client := &http.Client{Transport: tr}
		in := instance{alg: "fr-eedcb", model: "rayleigh", n: 14, seed: int64(100 + i), src: 0}
		code, sr, err := postSolve(client, ts.URL, solveBody(in, func(q *solveRequest) { q.NoCache = true }))
		results <- result{code: code, sr: sr, in: in, err: err}
	}
	var wg sync.WaitGroup
	for i := 0; i < queued; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(i)
		}(i)
		// Arrivals are sequenced so each request's observed depth is
		// exactly its index.
		waitDepth(int64(i + 1))
	}

	// One more fills the queue at the last-resort rung...
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(queued)
	}()
	waitDepth(int64(queued + 1))
	// ...and with the queue at capacity the backstop must reject.
	code, _, err := postSolve(ts.Client(), ts.URL, solveBody(
		instance{alg: "fr-eedcb", model: "rayleigh", n: 14, seed: 999, src: 0},
		func(q *solveRequest) { q.NoCache = true }))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Errorf("request past queue capacity answered %d, want 503", code)
	}

	<-srv.sem // release the slot; the queue drains serially
	wg.Wait()
	close(results)

	shed, rejected := 0, 0
	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		switch r.code {
		case http.StatusOK:
			if r.sr.ShedRungs > 0 {
				shed++
				// Degraded, but still model-true feasible: every covered
				// node is informed by T0+T with residual failure <= ε.
				tr := tmedb.GenerateTrace(tmedb.TraceOptions{N: r.in.n}, r.in.seed)
				model, _ := tveg.ParseModel(r.in.model)
				g := tr.ToTVEG(0, tmedb.DefaultParams(), model)
				sched := decodeSchedule(t, r.sr)
				uncovered := make(map[int]bool, len(r.sr.Incomplete))
				for _, n := range r.sr.Incomplete {
					uncovered[n] = true
				}
				for n := 0; n < g.N(); n++ {
					if uncovered[n] {
						continue
					}
					p := tmedb.UninformedProb(g, sched, 0, tmedb.NodeID(n), soakT0+soakDelay)
					if p > g.Params.Eps*1.000001 {
						t.Errorf("shed schedule violates ε at node %d: %g", n, p)
					}
				}
			}
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Errorf("overload answered %d, want 200 (possibly shed) or 503", r.code)
		}
	}
	// Depths 0..7 shed 0,0,1,1,2,2,3,3 rungs: six requests degraded.
	if want := 6; shed != want {
		t.Errorf("%d requests shed rungs, want exactly %d (depths are deterministic)", shed, want)
	}
	if rejected > 0 {
		t.Errorf("%d requests rejected within queue capacity", rejected)
	}

	ts.Close()
	checkNoLeaks(t, base)
}

// TestRunRestartable proves the daemon can be started and stopped twice
// in one process — the regression that flushed out the once-per-process
// expvar publish panic (a second run() used to crash on PublishExpvar).
func TestRunRestartable(t *testing.T) {
	for i := 0; i < 2; i++ {
		cfg := defaultConfig()
		cfg.addr = "127.0.0.1:0"
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- run(ctx, cfg, io.Discard) }()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("run %d did not drain", i)
		}
	}
}

// TestParseFlagsValidation pins the upfront flag validation.
func TestParseFlagsValidation(t *testing.T) {
	bad := [][]string{
		{"-workers", "-1"},
		{"-max-concurrent", "0"},
		{"-max-queue", "0"},
		{"-cache", "0"},
	}
	for _, args := range bad {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted invalid flags", args)
		}
	}
	if _, err := parseFlags(nil); err != nil {
		t.Errorf("default flags rejected: %v", err)
	}
}

// TestSolveRequestValidation pins the request validation surface.
func TestSolveRequestValidation(t *testing.T) {
	good := solveRequest{Synthetic: &syntheticRef{N: 10, Seed: 1}, Delay: 100}
	if err := good.validate(); err != nil {
		t.Fatalf("minimal request rejected: %v", err)
	}
	cases := []func(*solveRequest){
		func(r *solveRequest) { r.Synthetic = nil },                                   // no source
		func(r *solveRequest) { r.Trace = "x" },                                       // two sources
		func(r *solveRequest) { r.Synthetic.N = 0 },                                   // empty synthetic
		func(r *solveRequest) { r.Synthetic.N = 1025 },                                // above maxNodes
		func(r *solveRequest) { r.Delay = 0 },                                         // no delay window
		func(r *solveRequest) { r.Src = -1 },                                          // bad source
		func(r *solveRequest) { r.Eps = 1 },                                           // eps out of range
		func(r *solveRequest) { r.Workers = -2 },                                      // negative workers
		func(r *solveRequest) { r.DeadlineMS = -1 },                                   // negative budget
		func(r *solveRequest) { r.Alg = "dijkstra" },                                  // unknown alg
		func(r *solveRequest) { r.Model = "awgn" },                                    // unknown model
		func(r *solveRequest) { r.Ladder = "full,warp" },                              // bad ladder
		func(r *solveRequest) { r.Level = -1 },                                        // bad level
		func(r *solveRequest) { r.TraceFile = "x"; r.Synthetic = nil; r.Trace = "y" }, // two sources
	}
	for i, mutate := range cases {
		req := good
		synth := *good.Synthetic
		req.Synthetic = &synth
		mutate(&req)
		if err := req.validate(); err == nil {
			t.Errorf("case %d: invalid request accepted: %+v", i, req)
		}
	}
}

// TestMalformedTraceRejected: an inline trace whose contact distance is
// negative or NaN, or whose header names fewer than 1 or more than
// maxNodes nodes, is malformed input, so /solve and /edit answer 400
// instead of dropping the connection, failing with a 500 or building a
// graph of that size. The same requests with a valid distance answer
// 200.
func TestMalformedTraceRejected(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	in := instance{alg: "fr-eedcb", model: "rayleigh"}
	edits := []editSpec{{Op: "add", I: 0, J: 1, Start: 10, End: 20, Dist: 2}}
	for _, tc := range []struct {
		trace string
		want  int
	}{
		{"0 1 5 50 3\n", http.StatusOK},
		{"0 1 5 50 -3\n", http.StatusBadRequest},
		{"0 1 5 50 NaN\n", http.StatusBadRequest},
		{"# haggle-trace v1 nodes=2000000000 horizon=100\n", http.StatusBadRequest},
		{"# haggle-trace v1 nodes=-5 horizon=100\n", http.StatusBadRequest},
	} {
		inline := func(r *solveRequest) {
			r.Synthetic, r.Trace = nil, tc.trace
			r.T0, r.Delay = 0, 40
		}
		code, _, err := postSolve(ts.Client(), ts.URL, solveBody(in, inline))
		if err != nil || code != tc.want {
			t.Errorf("/solve with trace %q: status %d (err %v), want %d", tc.trace, code, err, tc.want)
		}
		code, _, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, edits, inline))
		if err != nil || code != tc.want {
			t.Errorf("/edit with trace %q: status %d (err %v), want %d: %s", tc.trace, code, err, tc.want, raw)
		}
	}
}

// TestCacheServesIdenticalSchedule pins hit/miss equivalence directly:
// the second identical request is a hit and returns the same envelope
// transmissions.
func TestCacheServesIdenticalSchedule(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "eedcb", model: "static", n: 10, seed: 9, src: 0}
	code1, sr1, err := postSolve(ts.Client(), ts.URL, solveBody(in, nil))
	if err != nil || code1 != http.StatusOK {
		t.Fatalf("cold solve: code=%d err=%v", code1, err)
	}
	code2, sr2, err := postSolve(ts.Client(), ts.URL, solveBody(in, nil))
	if err != nil || code2 != http.StatusOK {
		t.Fatalf("warm solve: code=%d err=%v", code2, err)
	}
	if sr1.Cache != "miss" || sr2.Cache != "hit" {
		t.Fatalf("cache fields = %q, %q; want miss, hit", sr1.Cache, sr2.Cache)
	}
	a := scheduleBytes(t, decodeSchedule(t, sr1))
	b := scheduleBytes(t, decodeSchedule(t, sr2))
	if !bytes.Equal(a, b) {
		t.Fatal("cache hit returned a different schedule than the cold solve")
	}
}

// TestCacheHitCarriesNoPhaseTimings pins that phase timings belong to
// the request that measured them: a "report": true solve and a ?trace=1
// solve each fill the cache, yet a later plain hit on the same key
// answers a schedule meta without phase_ms. The reporting request's own
// response keeps its timings.
func TestCacheHitCarriesNoPhaseTimings(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	meta := func(sr solveResponse) *tmedb.ScheduleMeta {
		t.Helper()
		_, m, err := tmedb.ReadScheduleJSONMeta(bytes.NewReader(sr.Schedule))
		if err != nil {
			t.Fatalf("response schedule: %v", err)
		}
		return m
	}

	reported := instance{alg: "greed", model: "static", n: 16, seed: 1, src: 0}
	code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(reported, func(q *solveRequest) { q.Report = true }))
	if err != nil || code != http.StatusOK {
		t.Fatalf("report solve: code=%d err=%v", code, err)
	}
	if sr.Cache != "miss" || len(meta(sr).PhaseMS) == 0 {
		t.Fatalf("report solve: cache %q, phase_ms %v; want a miss with its own timings", sr.Cache, meta(sr).PhaseMS)
	}
	code, sr, err = postSolve(ts.Client(), ts.URL, solveBody(reported, nil))
	if err != nil || code != http.StatusOK {
		t.Fatalf("plain solve after report: code=%d err=%v", code, err)
	}
	if sr.Cache != "hit" {
		t.Fatalf("plain solve after report was a %q, want hit", sr.Cache)
	}
	if pm := meta(sr).PhaseMS; len(pm) != 0 {
		t.Errorf("cache hit carries the report solve's phase timings: %v", pm)
	}

	traced := instance{alg: "greed", model: "static", n: 16, seed: 2, src: 0}
	resp, err := ts.Client().Post(ts.URL+"/solve?trace=1", "application/json", bytes.NewReader(solveBody(traced, nil)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace solve: status %d, want 200", resp.StatusCode)
	}
	code, sr, err = postSolve(ts.Client(), ts.URL, solveBody(traced, nil))
	if err != nil || code != http.StatusOK || sr.Cache != "hit" {
		t.Fatalf("plain solve after trace: code=%d cache=%q err=%v; want a 200 hit", code, sr.Cache, err)
	}
	if pm := meta(sr).PhaseMS; len(pm) != 0 {
		t.Errorf("cache hit carries the trace solve's phase timings: %v", pm)
	}
}

// TestLadderSolvesDoNotPoisonCache pins the cache-fill contract: a
// budgeted solve whose request-supplied ladder pins it to the rung of
// last resort wins its first rung cleanly, yet must not be cached —
// the ladder is not part of the cache key, so caching it would hand a
// rand schedule to later full-quality requests for the same key.
func TestLadderSolvesDoNotPoisonCache(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "fr-eedcb", model: "rayleigh", n: 10, seed: 11, src: 0}
	code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(in, func(q *solveRequest) {
		q.DeadlineMS = 60_000
		q.Ladder = "rand"
	}))
	if err != nil || code != http.StatusOK {
		t.Fatalf("ladder solve: code=%d err=%v", code, err)
	}
	if sr.Rung != "rand" {
		t.Fatalf("ladder solve answered at rung %q, want rand", sr.Rung)
	}
	// The same key without the ladder must be a miss and answer the
	// full-quality schedule, byte-identical to a direct facade solve.
	code, sr, err = postSolve(ts.Client(), ts.URL, solveBody(in, nil))
	if err != nil || code != http.StatusOK {
		t.Fatalf("plain solve: code=%d err=%v", code, err)
	}
	if sr.Cache != "miss" {
		t.Errorf("plain solve after ladder solve was a %q, want miss (cache poisoned)", sr.Cache)
	}
	got := scheduleBytes(t, decodeSchedule(t, sr))
	if want := scheduleBytes(t, expected(t, in)); !bytes.Equal(got, want) {
		t.Errorf("plain solve after ladder solve differs from facade:\n got %s\nwant %s", got, want)
	}
}

// TestAdmitFreeSlotNeverSheds pins the admission fast path: arrivals
// that find a free solve slot admit unshed no matter how many other
// requests are mid-admission, even when maxQueue is small relative to
// maxConcurrent (the old admit counted simultaneous arrivals on an idle
// daemon as queue depth and could shed or 503 with slots free).
func TestAdmitFreeSlotNeverSheds(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxConcurrent = 2
	cfg.maxQueue = 1
	srv := newServer(cfg)

	// Simulate the worst interleaving: the waiting counter already holds
	// more in-flight arrivals than the queue admits.
	srv.waiting.Add(int64(cfg.maxQueue + 3))
	rel1, shed, err := srv.admit(context.Background())
	if err != nil || shed != 0 {
		t.Fatalf("admit on idle daemon: shed=%d err=%v", shed, err)
	}
	rel2, shed, err := srv.admit(context.Background())
	if err != nil || shed != 0 {
		t.Fatalf("admit with one slot left: shed=%d err=%v", shed, err)
	}
	srv.waiting.Add(-int64(cfg.maxQueue + 3))

	// Slots exhausted: admission queues again and the caller's context
	// is the only way out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := srv.admit(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit with no free slot and dead ctx: %v, want context.Canceled", err)
	}
	rel1()
	rel2()
}

// TestShedRungsCountsDroppedRungs pins the shed_rungs semantics: the
// value is the number of rungs the shed level actually removed from the
// planner-bounded ladder, not the absolute shed level.
func TestShedRungsCountsDroppedRungs(t *testing.T) {
	srv := newServer(defaultConfig())
	g := tmedb.GenerateTrace(tmedb.TraceOptions{N: 10}, 1).ToTVEG(0, tmedb.DefaultParams(), tmedb.Static)
	shed := int(tmedb.RungGreed)

	// A greed request already starts at the greed rung: shedding to
	// greed removes nothing and must report zero.
	req := solveRequest{Alg: "greed", Src: 0, T0: soakT0, Delay: soakDelay}
	_, outcome, dropped, _, err := srv.solveGraph(context.Background(), &req, g, shed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Errorf("greed request shed to greed reports %d dropped rungs, want 0", dropped)
	}
	if outcome == nil || outcome.Rung != tmedb.RungGreed {
		t.Fatalf("greed request shed to greed answered outcome %+v, want greed rung", outcome)
	}

	// The default planner's 4-rung ladder loses full and spt.
	req = solveRequest{Src: 0, T0: soakT0, Delay: soakDelay}
	_, outcome, dropped, _, err = srv.solveGraph(context.Background(), &req, g, shed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 2 {
		t.Errorf("fr-eedcb request shed to greed reports %d dropped rungs, want 2", dropped)
	}
	if outcome == nil || outcome.Rung != tmedb.RungGreed {
		t.Fatalf("fr-eedcb request shed to greed answered outcome %+v, want greed rung", outcome)
	}
}
