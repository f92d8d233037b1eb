package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLoggerEventAttrs pins the structured-log shape: constant message,
// key-value attrs, bound req_id shared across events of one request.
func TestLoggerEventAttrs(t *testing.T) {
	var buf bytes.Buffer
	lg := NewJSONLogger(&buf).With(Str("req_id", "r-1"))
	lg.Event("solve.done", Str("rung", "greed"), I("shed_rungs", 2), F64("ms", 1.5))
	lg.Error("solve.failed", fmt.Errorf("boom"), Str("kind", "internal"))

	dec := json.NewDecoder(&buf)
	var first, second map[string]any
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&second); err != nil {
		t.Fatal(err)
	}
	if first["msg"] != "solve.done" || first["req_id"] != "r-1" || first["rung"] != "greed" {
		t.Errorf("event line missing fields: %v", first)
	}
	if first["shed_rungs"] != 2.0 || first["ms"] != 1.5 {
		t.Errorf("numeric attrs wrong: %v", first)
	}
	if second["msg"] != "solve.failed" || second["err"] != "boom" || second["req_id"] != "r-1" || second["level"] != "ERROR" {
		t.Errorf("error line missing fields: %v", second)
	}
}

// TestLoggerContextThreading pins WithLogger/LoggerFrom: a logger rides
// the context; an absent or nil logger comes back as the disabled nil.
func TestLoggerContextThreading(t *testing.T) {
	if LoggerFrom(context.Background()) != nil {
		t.Error("empty context yielded a logger")
	}
	//lint:ignore SA1012 nil-context safety is part of the contract
	if LoggerFrom(nil) != nil {
		t.Error("nil context yielded a logger")
	}
	ctx := WithLogger(context.Background(), nil)
	if ctx != context.Background() {
		t.Error("nil logger allocated a context frame")
	}
	var buf bytes.Buffer
	lg := NewTextLogger(&buf)
	got := LoggerFrom(WithLogger(context.Background(), lg))
	if got != lg {
		t.Error("logger did not round-trip through the context")
	}
	got.Event("hello")
	if !strings.Contains(buf.String(), "hello") {
		t.Errorf("threaded logger did not write: %q", buf.String())
	}
}

// TestNewRequestIDUnique pins process-uniqueness under concurrency.
func TestNewRequestIDUnique(t *testing.T) {
	const n = 1000
	var mu sync.Mutex
	seen := make(map[string]bool, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				id := NewRequestID()
				mu.Lock()
				if seen[id] {
					t.Errorf("duplicate request id %s", id)
				}
				seen[id] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// TestRollingQuantiles pins the window semantics: the snapshot's
// quantiles cover only the last W observations while count/sum stay
// cumulative.
func TestRollingQuantiles(t *testing.T) {
	r := New()
	ro := r.Rolling("lat", 100)
	if rr := r.Snapshot(nil).Rollings[0]; rr.Count != 0 || rr.P50 != 0 || rr.P99 != 0 {
		t.Errorf("empty window = %+v, want zero count and quantiles", rr)
	}
	// 200 observations; only the last 100 (100..199) are in the window,
	// so p50/p90/p99 interpolate at ranks 49.5, 89.1 and 98.01 above 100.
	for i := 0; i < 200; i++ {
		ro.Observe(float64(i))
	}
	rep := r.Snapshot(nil)
	if len(rep.Rollings) != 1 || rep.Rollings[0].Name != "lat" {
		t.Fatalf("report rollings = %+v", rep.Rollings)
	}
	rr := rep.Rollings[0]
	if rr.Count != 200 || rr.Window != 100 || rr.Sum != 199*200/2 {
		t.Errorf("rolling report = %+v, want cumulative count 200 and sum 19900", rr)
	}
	for _, q := range []struct{ got, want float64 }{{rr.P50, 149.5}, {rr.P90, 189.1}, {rr.P99, 198.01}} {
		if math.Abs(q.got-q.want) > 1e-9 {
			t.Errorf("rolling quantiles = %+v, want p50 149.5, p90 189.1, p99 198.01", rr)
			break
		}
	}
	// The report must stay JSON-marshalable even with an empty window.
	r2 := New()
	r2.Rolling("empty", 4)
	var buf bytes.Buffer
	if err := r2.Snapshot(nil).WriteJSON(&buf); err != nil {
		t.Errorf("empty rolling broke the JSON report: %v", err)
	}
}

// expositionLine matches one exposition sample:
// name{labels} value — the grammar the scrape validator in the daemon
// soak also enforces.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// ValidateExposition scans Prometheus text-format output and returns
// the set of sample names seen, failing t on any malformed line. Shared
// with the daemon tests via this package's export test hook.
func ValidateExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed exposition line: %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		names[name] = true
	}
	return names
}

// TestWritePrometheus pins the exposition rendering: counters, gauges,
// rolling summaries with quantile labels, and name sanitization under a
// family prefix.
func TestWritePrometheus(t *testing.T) {
	r := New()
	r.Counter("cache.hits").Add(3)
	r.Gauge("queue.waiting").Set(2)
	ro := r.Rolling("wait_ms", 8)
	ro.Observe(1)
	ro.Observe(3)
	r.Pool("steiner").Observe(0, 4, time.Millisecond)

	var buf bytes.Buffer
	if err := r.Snapshot(nil).WritePrometheus(&buf, "tmedbd"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	names := ValidateExposition(t, out)
	for _, want := range []string{
		"tmedbd_cache_hits", "tmedbd_queue_waiting",
		"tmedbd_wait_ms", "tmedbd_wait_ms_sum", "tmedbd_wait_ms_count",
		"tmedbd_pool_runs", "tmedbd_pool_tasks",
	} {
		if !names[want] {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
	for _, want := range []string{
		"# TYPE tmedbd_cache_hits counter",
		"# TYPE tmedbd_wait_ms summary",
		`tmedbd_wait_ms{quantile="0.5"} 2`,
		`tmedbd_pool_tasks{pool="steiner"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing line %q:\n%s", want, out)
		}
	}
	// A metric already carrying the family prefix is not doubled.
	r2 := New()
	r2.Counter("tmedbd.requests").Inc()
	buf.Reset()
	r2.Snapshot(nil).WritePrometheus(&buf, "tmedbd")
	if strings.Contains(buf.String(), "tmedbd_tmedbd") {
		t.Errorf("prefix doubled:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "tmedbd_requests 1") {
		t.Errorf("prefixed counter missing:\n%s", buf.String())
	}
}

// TestMetricsHandlerServesPublished pins the /metrics twin of
// /debug/vars: every recorder published via PublishExpvar renders under
// its published name.
func TestMetricsHandlerServesPublished(t *testing.T) {
	r := New()
	r.Counter("solves").Add(7)
	if err := r.PublishExpvar("promtest"); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	MetricsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body := rec.Body.String()
	ValidateExposition(t, body)
	if !strings.Contains(body, "promtest_solves 7") {
		t.Errorf("published recorder missing from /metrics:\n%s", body)
	}
}

// TestTraceEvents pins the catapult export: complete events, µs
// timestamps relative to the run, args from span attrs, nesting
// preserved by ts/dur containment.
func TestTraceEvents(t *testing.T) {
	r := New()
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	r.SetClock(clock)

	outer := r.StartPhase("eedcb")
	now = now.Add(2 * time.Millisecond)
	inner := outer.Recorder().StartPhase("dts")
	inner.SetInt("points", 42)
	now = now.Add(3 * time.Millisecond)
	inner.End()
	now = now.Add(1 * time.Millisecond)
	outer.End()

	rep := r.Snapshot(nil)
	events := rep.TraceEvents()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3 (run + 2 phases): %+v", len(events), events)
	}
	byName := map[string]TraceEvent{}
	for _, e := range events {
		if e.Ph != "X" {
			t.Errorf("event %s has phase %q, want X", e.Name, e.Ph)
		}
		byName[e.Name] = e
	}
	run, eedcb, dts := byName["run"], byName["eedcb"], byName["dts"]
	if run.Dur != 6000 || eedcb.Ts != 0 || eedcb.Dur != 6000 {
		t.Errorf("run/eedcb timing wrong: %+v / %+v", run, eedcb)
	}
	if dts.Ts != 2000 || dts.Dur != 3000 {
		t.Errorf("dts timing = ts %v dur %v, want 2000/3000", dts.Ts, dts.Dur)
	}
	if dts.Args["points"] != 42.0 {
		t.Errorf("dts args = %v", dts.Args)
	}
	if dts.Tid != eedcb.Tid {
		t.Errorf("nested span changed track: %d vs %d", dts.Tid, eedcb.Tid)
	}

	var buf bytes.Buffer
	if err := rep.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded []TraceEvent
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("trace output is not a JSON array: %v", err)
	}
	if len(decoded) != 3 {
		t.Errorf("round-trip lost events: %d", len(decoded))
	}
}

// TestFlightFIFO pins ring semantics serially: exactly-once recording,
// FIFO eviction of the oldest entries, oldest-first snapshots.
func TestFlightFIFO(t *testing.T) {
	f := NewFlight(4)
	for i := 0; i < 10; i++ {
		f.Record(RequestRecord{ID: fmt.Sprintf("r-%d", i), Status: 200})
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d records, want capacity 4", len(snap))
	}
	for i, rec := range snap {
		if want := fmt.Sprintf("r-%d", 6+i); rec.ID != want {
			t.Errorf("slot %d = %s, want %s (FIFO eviction)", i, rec.ID, want)
		}
		if rec.Seq != uint64(6+i) {
			t.Errorf("slot %d seq = %d, want %d", i, rec.Seq, 6+i)
		}
	}
}

// TestFlightConcurrent pins the lock-free contract under contention:
// with a ring at least as large as the write count, every record
// appears exactly once and snapshots during writes stay well-formed.
func TestFlightConcurrent(t *testing.T) {
	const writers, per = 8, 50
	f := NewFlight(writers * per)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: snapshots must never tear
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := f.Snapshot()
			for i := 1; i < len(snap); i++ {
				if snap[i].Seq <= snap[i-1].Seq {
					t.Errorf("snapshot out of order: %d then %d", snap[i-1].Seq, snap[i].Seq)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Record(RequestRecord{ID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	for len(f.Snapshot()) < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	seen := map[string]int{}
	for _, rec := range f.Snapshot() {
		seen[rec.ID]++
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct records, want %d", len(seen), writers*per)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("record %s appears %d times, want exactly once", id, n)
		}
	}
}

// TestFlightHandler pins the /debug/requests JSON shape.
func TestFlightHandler(t *testing.T) {
	f := NewFlight(8)
	f.Record(RequestRecord{ID: "r-1", Status: 200, Rung: "greed", Cache: "miss"})
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var page struct {
		Cap      int             `json:"cap"`
		Recorded uint64          `json:"recorded"`
		Requests []RequestRecord `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatal(err)
	}
	if page.Cap != 8 || page.Recorded != 1 || len(page.Requests) != 1 {
		t.Fatalf("page = %+v", page)
	}
	if got := page.Requests[0]; got.ID != "r-1" || got.Rung != "greed" || got.Cache != "miss" {
		t.Errorf("record = %+v", got)
	}
	// The nil flight serves an empty page, not a panic.
	rec = httptest.NewRecorder()
	(*Flight)(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if !strings.Contains(rec.Body.String(), `"requests":[]`) {
		t.Errorf("nil flight page: %s", rec.Body.String())
	}
}

// TestPhaseStartOffsets pins StartMS: offsets are relative to the run
// root, not absolute wall times.
func TestPhaseStartOffsets(t *testing.T) {
	r := New()
	now := time.Unix(1000, 0)
	r.SetClock(func() time.Time { return now })
	now = now.Add(5 * time.Millisecond)
	sp := r.StartPhase("late")
	now = now.Add(2 * time.Millisecond)
	sp.End()
	rep := r.Snapshot(nil)
	if len(rep.Phases) != 1 || rep.Phases[0].StartMS != 5 || rep.Phases[0].WallMS != 2 {
		t.Errorf("phase offsets = %+v", rep.Phases)
	}
}
