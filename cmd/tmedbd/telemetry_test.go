package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro"
)

// TestFlightFIFOEviction pins the eviction contract end to end on a
// deliberately tiny ring: after K > cap serial solves, /debug/requests
// holds exactly the last cap requests, oldest first.
func TestFlightFIFOEviction(t *testing.T) {
	cfg := defaultConfig()
	cfg.flightSize = 2
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "greed", model: "static", n: 10, seed: 1, src: 0}
	var ids []string
	for i := 0; i < 5; i++ {
		code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(in, func(q *solveRequest) { q.NoCache = true }))
		if err != nil || code != http.StatusOK {
			t.Fatalf("solve %d: code=%d err=%v", i, code, err)
		}
		ids = append(ids, sr.ReqID)
	}
	page := fetchFlight(t, ts.URL)
	if page.Cap != 2 || page.Recorded != 5 {
		t.Fatalf("flight page cap=%d recorded=%d, want 2/5", page.Cap, page.Recorded)
	}
	if len(page.Requests) != 2 {
		t.Fatalf("flight holds %d records, want 2", len(page.Requests))
	}
	for i, want := range ids[3:] {
		got := page.Requests[i]
		if got.ID != want {
			t.Errorf("slot %d holds %s, want %s (FIFO eviction of the oldest)", i, got.ID, want)
		}
		if got.Status != http.StatusOK || got.Alg != "greed" || got.Cache != "miss" {
			t.Errorf("slot %d record incomplete: %+v", i, got)
		}
	}
}

// TestFlightRecordsFailures pins that failed requests reach the flight
// recorder too, carrying the error and its status.
func TestFlightRecordsFailures(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body, _ := json.Marshal(solveRequest{Trace: "bogus", Src: 0, Delay: 10})
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	page := fetchFlight(t, ts.URL)
	if len(page.Requests) != 1 {
		t.Fatalf("flight holds %d records, want 1", len(page.Requests))
	}
	rec := page.Requests[0]
	if rec.Status != http.StatusBadRequest || rec.Err == "" {
		t.Errorf("failure record = %+v, want status 400 with error", rec)
	}
}

// panicBody is a request body whose Read panics: it makes the request
// path panic on the handler goroutine, as a solver would, without a
// hook in production code.
type panicBody struct{}

func (panicBody) Read([]byte) (int, error) { panic("body read panic") }

// TestPanicFailsOnlyItsRequest pins the serving boundary's panic rule
// on both routes: the panicking request answers 500 with a JSON error,
// leaves a flight record with status 500 and logs solve.failed with
// kind=internal, and the daemon goes on answering valid requests.
func TestPanicFailsOnlyItsRequest(t *testing.T) {
	srv := newServer(defaultConfig())
	var buf syncBuffer
	srv.log = tmedb.NewJSONLogger(&buf)
	h := srv.handler()
	in := editWorkload.in
	for _, rt := range []struct {
		path, route string
		valid       []byte
	}{
		{"/solve", "solve", solveBody(in, nil)},
		{"/edit", "edit", editBody(in, editWorkload.edits[:1], nil)},
	} {
		buf.Reset()
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, rt.path, panicBody{}))
		var er errorResponse
		if rr.Code != http.StatusInternalServerError || json.Unmarshal(rr.Body.Bytes(), &er) != nil || er.Error == "" {
			t.Errorf("%s: panicking request answered %d %q, want 500 with a JSON error", rt.path, rr.Code, rr.Body)
		}

		fr := httptest.NewRecorder()
		h.ServeHTTP(fr, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
		var page flightPageJSON
		if err := json.Unmarshal(fr.Body.Bytes(), &page); err != nil || len(page.Requests) == 0 {
			t.Fatalf("%s: flight page: %v: %s", rt.path, err, fr.Body)
		}
		if last := page.Requests[len(page.Requests)-1]; last.Status != http.StatusInternalServerError ||
			!strings.Contains(last.Err, "body read panic") {
			t.Errorf("%s: flight record %+v, want status 500 with the panic", rt.path, last)
		}

		logged := false
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var ev map[string]any
			if json.Unmarshal([]byte(line), &ev) == nil && ev["msg"] == "solve.failed" &&
				ev["kind"] == "internal" && ev["route"] == rt.route && ev["status"] == float64(500) {
				logged = true
			}
		}
		if !logged {
			t.Errorf("%s: no solve.failed kind=internal route=%s line:\n%s", rt.path, rt.route, buf.String())
		}

		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(rt.valid)))
		if rr.Code != http.StatusOK {
			t.Errorf("%s: valid request after the panic answered %d: %s", rt.path, rr.Code, rr.Body)
		}
	}
}

// TestSolveTraceExport pins ?trace=1: the response is a catapult
// trace-event array whose events mirror the solve's phase tree, with
// the minted request ID echoed in X-Request-Id.
func TestSolveTraceExport(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "eedcb", model: "static", n: 10, seed: 1, src: 0}
	resp, err := ts.Client().Post(ts.URL+"/solve?trace=1", "application/json",
		bytes.NewReader(solveBody(in, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("trace response carries no X-Request-Id")
	}
	var events []struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatalf("trace body is not a catapult event array: %v", err)
	}
	names := map[string]bool{}
	for _, e := range events {
		if e.Ph != "X" {
			t.Errorf("event %s has ph %q, want complete event X", e.Name, e.Ph)
		}
		if e.Dur < 0 || e.Ts < 0 {
			t.Errorf("event %s has negative timing: ts=%g dur=%g", e.Name, e.Ts, e.Dur)
		}
		names[e.Name] = true
	}
	// The direct eedcb path always opens these phases (see internal/core).
	for _, want := range []string{"run", "eedcb", "dts"} {
		if !names[want] {
			t.Errorf("trace missing phase %q (got %v)", want, names)
		}
	}

	// The trace request bypassed the cache lookup but still filled it:
	// an identical plain request now hits.
	code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(in, nil))
	if err != nil || code != http.StatusOK {
		t.Fatalf("post-trace solve: code=%d err=%v", code, err)
	}
	if sr.Cache != "hit" {
		t.Errorf("post-trace repeat was a %q, want hit (trace solves fill the cache)", sr.Cache)
	}
}

// TestRequestLogging pins the structured-log schema: with -log json,
// one solve emits constant-message events (solve.received, the degrade
// rung events, solve.done) all bound to the request's req_id, and that
// req_id matches the one in the response. An /edit request logs the
// same event family plus edit.applied, each line carrying route=edit.
func TestRequestLogging(t *testing.T) {
	cfg := defaultConfig()
	srv := newServer(cfg)
	var buf syncBuffer
	srv.log = tmedb.NewJSONLogger(&buf)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "greed", model: "static", n: 10, seed: 3, src: 0}
	// A budgeted solve so the degradation ladder (and its rung events)
	// engages; greed is cheap enough to win its first rung.
	code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(in, func(q *solveRequest) {
		q.DeadlineMS = 60_000
	}))
	if err != nil || code != http.StatusOK {
		t.Fatalf("solve: code=%d err=%v", code, err)
	}
	if sr.ReqID == "" {
		t.Fatal("response carries no req_id")
	}

	var msgs []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if ev["req_id"] != sr.ReqID || ev["route"] != "solve" {
			t.Errorf("log line %q has req_id %v route %v, want %s and solve", ev["msg"], ev["req_id"], ev["route"], sr.ReqID)
		}
		msgs = append(msgs, ev["msg"].(string))
	}
	joined := strings.Join(msgs, ",")
	for _, want := range []string{"solve.received", "degrade.rung_answered", "solve.done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("log stream missing event %q (got %s)", want, joined)
		}
	}
	// Events arrive in request order: received before done.
	if len(msgs) < 2 || msgs[0] != "solve.received" || msgs[len(msgs)-1] != "solve.done" {
		t.Errorf("event order = %v, want solve.received first and solve.done last", msgs)
	}

	// A failed request logs solve.failed with the taxonomy kind.
	buf.Reset()
	body, _ := json.Marshal(solveRequest{Trace: "bogus", Src: 0, Delay: 10})
	resp, err := ts.Client().Post(ts.URL+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(buf.String(), `"msg":"solve.failed"`) ||
		!strings.Contains(buf.String(), `"kind":"bad_request"`) {
		t.Errorf("failed solve log missing solve.failed/bad_request: %s", buf.String())
	}

	buf.Reset()
	code, sr, raw, err := postEdit(ts.Client(), ts.URL, editBody(editWorkload.in, editWorkload.edits[:1], nil))
	if err != nil || code != http.StatusOK {
		t.Fatalf("edit: code=%d err=%v: %s", code, err, raw)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		if ev["req_id"] != sr.ReqID || ev["route"] != "edit" {
			t.Errorf("edit log line %q has req_id %v route %v, want %s and edit", ev["msg"], ev["req_id"], ev["route"], sr.ReqID)
		}
		seen[ev["msg"].(string)] = true
	}
	for _, want := range []string{"solve.received", "edit.applied", "solve.done"} {
		if !seen[want] {
			t.Errorf("edit log stream missing event %q:\n%s", want, buf.String())
		}
	}
}

// TestMetricsEndpoint pins the /metrics exposition content after load:
// request counters, the latency summary with quantiles, and valid
// format throughout.
func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	in := instance{alg: "greed", model: "static", n: 10, seed: 1, src: 0}
	for i := 0; i < 3; i++ {
		if code, _, err := postSolve(ts.Client(), ts.URL, solveBody(in, nil)); err != nil || code != http.StatusOK {
			t.Fatalf("solve %d: code=%d err=%v", i, code, err)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q, want text exposition", ct)
	}
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := out.String()
	if err := validateExposition(body); err != nil {
		t.Error(err)
	}
	for _, want := range []string{
		"tmedbd_requests 3",
		"tmedbd_solved 1",
		"tmedbd_cache_hits 2",
		`tmedbd_latency_ms{quantile="0.5"}`,
		"tmedbd_latency_ms_count 3",
		// Only the cold solve reached admission; the two cache hits
		// answered before the queue.
		"tmedbd_queue_wait_ms_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q:\n%s", want, body)
		}
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the HTTP handler goroutine
// writes log lines while the test goroutine reads them.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}
