package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/lru"
)

// config tunes one daemon instance.
type config struct {
	// addr is the listen address of the solve API.
	addr string
	// debugAddr, when non-empty, serves pprof + expvar there.
	debugAddr string
	// traceDir is the root for trace_file references ("" disables them).
	traceDir string
	// workers caps the per-solve worker pools (0 = GOMAXPROCS); a
	// request may ask for fewer, never more.
	workers int
	// maxConcurrent bounds the solves running at once.
	maxConcurrent int
	// maxQueue bounds the requests waiting for a solve slot; beyond it
	// the daemon answers 503 (the backstop behind rung shedding).
	maxQueue int
	// cacheSize is the schedule-cache capacity in entries.
	cacheSize int
	// maxBody bounds the request body (inline traces can be large).
	maxBody int64
	// logFormat selects request-scoped structured logging: "json", "text",
	// or "" (disabled — the zero-allocation nil logger).
	logFormat string
	// flightSize is the flight-recorder ring capacity (0 = default 256).
	flightSize int
}

func defaultConfig() config {
	return config{
		addr:          "localhost:8723",
		workers:       1,
		maxConcurrent: 4,
		maxQueue:      16,
		cacheSize:     256,
		maxBody:       64 << 20,
	}
}

// cacheKey identifies a solve by everything that determines its
// full-quality schedule: the trace content (not the instance — the same
// trace uploaded twice hits), the broadcast instance (src, window, ε),
// and the planner (alg, model, level, seed). Workers is deliberately
// absent: schedules are identical for every pool size.
//
// The trace is identified by its 64-bit FNV-1a content hash plus a
// structural fingerprint (node count, horizon, contact count): the hash
// alone is only statistically collision-free (see the Trace.Hash
// collision note), and a collision here would silently serve another
// trace's schedule, so wrong-answer collisions additionally require two
// traces that agree on shape.
type cacheKey struct {
	traceHash     uint64
	traceN        int
	traceHorizon  float64
	traceContacts int
	src           int
	t0, delay     float64
	eps           float64
	model         string
	alg           string
	level         int
	seed          int64
	// edits fingerprints the /edit request's edit sequence (0 for plain
	// /solve): the same base trace under different deltas is a different
	// graph and must never share a cached schedule.
	edits uint64
}

// cacheEntry is one cached full-quality solve. The schedule and meta are
// shared read-only with every response that hits.
type cacheEntry struct {
	sched      tmedb.Schedule
	meta       *tmedb.ScheduleMeta
	incomplete []int
}

// server is one daemon instance: the admission-controlled compute tier
// in front of the solver stack, the schedule cache, and the fleet
// recorder backing /debug/vars.
type server struct {
	cfg config
	// cache is segmented: schedules requested again since they were
	// cached hold up to ¾ of it, so a run of one-off solves and edits
	// evicts other one-offs before it evicts a schedule clients repeat.
	cache *lru.Cache[cacheKey, cacheEntry]
	// sem holds one token per running solve.
	sem chan struct{}
	// waiting counts requests blocked on sem — the queue depth driving
	// the shedding policy.
	waiting atomic.Int64
	active  atomic.Int64
	// proc is the process-wide fleet recorder (expvar "tmedbd"); every
	// request also gets its own per-request recorder when it asks for a
	// report.
	proc *tmedb.Recorder
	// log is the structured event sink; nil (the default) disables
	// logging at zero cost. Each request derives a child logger bound to
	// its req_id and threads it through the solve via context.
	log *tmedb.Logger
	// flight is the last-N-requests ring served at /debug/requests.
	flight *tmedb.Flight
	// lat and qwait are the rolling-window SLO distributions behind the
	// /metrics summaries: end-to-end solve latency and time spent queued
	// for a slot, both in milliseconds.
	lat, qwait *tmedb.Rolling
	// instances holds the live edited graphs behind POST /edit, keyed by
	// everything that determines the pre-edit graph (base trace, model,
	// ε). Instances are an optimization, never a correctness dependency:
	// each /edit request carries its full edit sequence from the base
	// trace, so an evicted or diverged instance just costs that request a
	// rebuild. instMu guards the registry itself; each instance has its
	// own lock for edits and the solves answering them.
	instMu    sync.Mutex
	instances *lru.Cache[instanceKey, *editInstance]
}

// instanceKey identifies one live editable graph: the base trace (hash
// plus structural fingerprint, as in cacheKey) and the graph-shaping
// solve parameters. Planner fields are deliberately absent — every
// planner solves the same edited graph.
type instanceKey struct {
	traceHash     uint64
	traceN        int
	traceHorizon  float64
	traceContacts int
	model         string
	eps           float64
}

// editInstance is one live edited graph plus the edit sequence applied
// to it. mu serializes edits with the solves responding to them: a
// /edit response must answer exactly the state its request's sequence
// produced, not a later concurrent edit's.
type editInstance struct {
	mu      sync.Mutex
	g       *tmedb.Graph
	applied []editSpec
}

// editInstanceCap bounds the live-instance registry.
const editInstanceCap = 32

func newServer(cfg config) *server {
	if cfg.maxConcurrent <= 0 {
		cfg.maxConcurrent = 1
	}
	if cfg.maxQueue <= 0 {
		cfg.maxQueue = 1
	}
	if cfg.cacheSize <= 0 {
		cfg.cacheSize = 1
	}
	if cfg.maxBody <= 0 {
		cfg.maxBody = 64 << 20
	}
	srv := &server{
		cfg:       cfg,
		cache:     lru.NewSegmented[cacheKey, cacheEntry](cfg.cacheSize, cfg.cacheSize*3/4),
		sem:       make(chan struct{}, cfg.maxConcurrent),
		proc:      tmedb.NewRecorder(),
		flight:    tmedb.NewFlight(cfg.flightSize),
		instances: lru.New[instanceKey, *editInstance](editInstanceCap),
	}
	srv.lat = srv.proc.Rolling("tmedbd.latency_ms", 0)
	srv.qwait = srv.proc.Rolling("tmedbd.queue_wait_ms", 0)
	return srv
}

// handler mounts the API: POST /solve, POST /edit (solve-with-delta),
// GET /healthz, plus the telemetry
// reads — the Prometheus exposition of the fleet recorder at /metrics
// and the flight recorder at /debug/requests. pprof/expvar live on
// their own listener (see config.debugAddr), not here.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, solveRoute) })
	mux.HandleFunc("/edit", func(w http.ResponseWriter, r *http.Request) { s.handle(w, r, editRoute) })
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.proc.PromHandler("tmedbd"))
	mux.Handle("/debug/requests", s.flight)
	return mux
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"active":  s.active.Load(),
		"waiting": s.waiting.Load(),
	})
}

var errQueueFull = errors.New("queue full")

// admit blocks until a solve slot frees up or ctx dies. The returned
// shed level is the ladder starting rung admission control applies to
// this request: it grows with the queue depth observed at arrival, so an
// overloaded daemon degrades answer quality instead of erroring. A free
// slot admits immediately and sheds nothing — simultaneous arrivals on
// an idle daemon must not observe each other as queue depth and shed (or
// 503) while slots are free. Only a queue at maxQueue is rejected
// outright.
func (s *server) admit(ctx context.Context) (release func(), shed int, err error) {
	select {
	case s.sem <- struct{}{}:
		return s.acquired(), 0, nil
	default:
	}
	depth := int(s.waiting.Add(1) - 1)
	defer func() {
		s.waiting.Add(-1)
		s.proc.Gauge("tmedbd.queue.waiting").Set(float64(s.waiting.Load()))
	}()
	if depth >= s.cfg.maxQueue {
		s.proc.Counter("tmedbd.queue.rejected").Inc()
		return nil, 0, errQueueFull
	}
	shed = s.shedLevel(depth)
	select {
	case s.sem <- struct{}{}:
		return s.acquired(), shed, nil
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// acquired records a newly taken solve slot and returns its release.
func (s *server) acquired() func() {
	s.proc.Gauge("tmedbd.active").Set(float64(s.active.Add(1)))
	return func() {
		s.proc.Gauge("tmedbd.active").Set(float64(s.active.Add(-1)))
		<-s.sem
	}
}

// shedLevel maps the queue depth at arrival to a ladder starting rung:
// an empty queue sheds nothing, a queue at capacity starts at the rung
// of last resort, linear in between.
func (s *server) shedLevel(depth int) int {
	if depth <= 0 {
		return 0
	}
	level := depth * int(tmedb.RungRand+1) / s.cfg.maxQueue
	if max := int(tmedb.RungRand); level > max {
		return max
	}
	return level
}

// reqState is one request's telemetry: what the handler learned about
// the request as it progressed, shared between the solve path and the
// completion hooks (flight record, structured events).
type reqState struct {
	id         string
	alg, model string
	trace      string
	src        int
	t0, delay  float64
	rung       string
	shedRungs  int
	cache      string
	err        error
	phaseMS    map[string]float64
}

func (st *reqState) errString() string {
	if st.err == nil {
		return ""
	}
	return st.err.Error()
}

// statusWriter captures the response status and fires onFirst once,
// immediately before the first header/body write reaches the client —
// the hook that publishes the flight record before the response, so a
// client that has read its answer can already see the request at
// /debug/requests.
type statusWriter struct {
	http.ResponseWriter
	code    int
	onFirst func(code int)
}

func (w *statusWriter) WriteHeader(code int) {
	w.first(code)
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.first(http.StatusOK)
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) first(code int) {
	if w.code != 0 {
		return
	}
	w.code = code
	if w.onFirst != nil {
		w.onFirst(code)
	}
}

// errKind is the error-taxonomy label logged with failed requests.
func errKind(status int) string {
	switch status {
	case statusClientClosedRequest:
		return "cancelled"
	case http.StatusGatewayTimeout:
		return "budget"
	case http.StatusServiceUnavailable:
		return "overload"
	case http.StatusBadRequest:
		return "bad_request"
	default:
		return "internal"
	}
}

// route is what tells POST /solve and POST /edit apart on their one
// request path: the prefix of the request, cache and solved counters,
// and whether the body carries an edit sequence for a live instance.
type route struct {
	prefix string
	edits  bool
}

var (
	solveRoute = route{prefix: "tmedbd."}
	editRoute  = route{prefix: "tmedbd.edit.", edits: true}
)

// name is the route attr every log line of the request carries.
func (rt route) name() string {
	if rt.edits {
		return "edit"
	}
	return "solve"
}

// handle is the telemetry envelope around one request on either route:
// it mints the request ID, binds it and the route to the request-scoped
// logger threaded through the solver via context, and on completion
// records the flight entry, observes the latency distribution, and
// emits the solve.done / solve.failed event — all tagged with the same
// req_id. A panic anywhere below fails this request alone.
func (s *server) handle(w http.ResponseWriter, r *http.Request, rt route) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	s.proc.Counter(rt.prefix + "requests").Inc()
	start := time.Now()
	st := &reqState{id: tmedb.NewRequestID()}
	lg := s.log.With(tmedb.LogStr("req_id", st.id), tmedb.LogStr("route", rt.name()))
	sw := &statusWriter{ResponseWriter: w}
	sw.onFirst = func(code int) {
		s.flight.Record(tmedb.RequestRecord{
			ID:         st.id,
			Start:      start,
			DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
			Status:     code,
			Alg:        st.alg,
			Model:      st.model,
			Trace:      st.trace,
			Src:        st.src,
			T0:         st.t0,
			Delay:      st.delay,
			Rung:       st.rung,
			ShedRungs:  st.shedRungs,
			Cache:      st.cache,
			Err:        st.errString(),
			PhaseMS:    st.phaseMS,
		})
	}
	defer func() {
		v := recover()
		if v == http.ErrAbortHandler {
			panic(v)
		}
		// The /edit instance lock and the solve slot were released by
		// their own defers while the panic unwound to here. The panic
		// and its stack go to the flight record and the log, not to the
		// client.
		started := sw.code != 0
		if v != nil {
			s.proc.Counter("tmedbd.errors").Inc()
			st.err = fmt.Errorf("panic: %v\n%s", v, debug.Stack())
			if !started {
				writeError(sw, http.StatusInternalServerError, errors.New("internal error"))
			}
		}
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		s.lat.Observe(ms)
		if st.err != nil {
			lg.Error("solve.failed", st.err,
				tmedb.LogInt("status", sw.code),
				tmedb.LogStr("kind", errKind(sw.code)),
				tmedb.LogF64("ms", ms))
		} else if lg.Enabled() {
			lg.Event("solve.done",
				tmedb.LogInt("status", sw.code),
				tmedb.LogStr("cache", st.cache),
				tmedb.LogStr("rung", st.rung),
				tmedb.LogInt("shed_rungs", st.shedRungs),
				tmedb.LogF64("ms", ms))
		}
		if v != nil && started {
			// Too late for a status: drop the connection so the client
			// cannot take a cut-off body for an answer.
			panic(http.ErrAbortHandler)
		}
	}()
	s.serve(sw, r.WithContext(tmedb.WithLogger(r.Context(), lg)), st, rt)
}

// serve is the one request path of both routes: decode, validate,
// (on /edit) bring the live instance to the request's edit sequence,
// cache, admit, plan, respond — recording what it learns into st as it
// goes.
func (s *server) serve(w http.ResponseWriter, r *http.Request, st *reqState, rt route) {
	lg := tmedb.LoggerFrom(r.Context())
	// A /solve body decodes into the embedded solveRequest alone, so an
	// edits field there is rejected as unknown.
	var req editRequest
	var body interface{ validate() error } = &req.solveRequest
	if rt.edits {
		body = &req
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(body); err != nil {
		s.fail(st, w, http.StatusBadRequest, err)
		return
	}
	if err := body.validate(); err != nil {
		s.fail(st, w, http.StatusBadRequest, err)
		return
	}
	tr, traceName, err := s.resolveTrace(&req.solveRequest)
	if err != nil {
		s.fail(st, w, http.StatusBadRequest, err)
		return
	}
	st.alg, st.model, st.trace = req.alg(), req.model(), traceName
	st.src, st.t0, st.delay = req.Src, req.T0, req.Delay
	if lg.Enabled() {
		lg.Event("solve.received",
			tmedb.LogStr("alg", st.alg),
			tmedb.LogStr("model", st.model),
			tmedb.LogStr("trace", traceName),
			tmedb.LogInt("src", req.Src),
			tmedb.LogF64("t0", req.T0),
			tmedb.LogF64("delay", req.Delay))
	}
	if req.Src >= tr.N {
		s.fail(st, w, http.StatusBadRequest, fmt.Errorf("src %d outside [0,%d)", req.Src, tr.N))
		return
	}
	if req.T0 < 0 || req.T0+req.Delay > tr.Horizon {
		s.fail(st, w, http.StatusBadRequest,
			fmt.Errorf("window [%g,%g] outside trace horizon [0,%g]", req.T0, req.T0+req.Delay, tr.Horizon))
		return
	}
	for k := range req.Edits {
		if e := &req.Edits[k]; e.I >= tr.N || e.J >= tr.N {
			s.fail(st, w, http.StatusBadRequest,
				fmt.Errorf("edits[%d]: pair (%d,%d) outside [0,%d)", k, e.I, e.J, tr.N))
			return
		}
	}
	model := req.channel
	params := solveParams(&req.solveRequest)
	// ?trace=1 asks for the catapult trace of this solve instead of the
	// schedule envelope: it forces a per-request recorder and bypasses
	// the cache lookup (a cache hit plans nothing, so it has no trace).
	traceReq := r.URL.Query().Get("trace") == "1"
	var rec *tmedb.Recorder
	if req.Report || traceReq {
		rec = tmedb.NewRecorder()
	}
	traceHash := tmedb.TraceHash(tr)

	resp := solveResponse{ReqID: st.id}
	// g stays nil on /solve until admission, so a cache hit builds
	// nothing; /edit solves its live instance.
	var g *tmedb.Graph
	if rt.edits {
		// The instance lock covers reconcile, apply, and solve: a
		// response answers exactly the graph state its edit sequence
		// produced, never a concurrent request's later edits.
		inst := s.instance(instanceKey{
			traceHash:     traceHash,
			traceN:        tr.N,
			traceHorizon:  tr.Horizon,
			traceContacts: len(tr.Contacts),
			model:         req.model(),
			eps:           req.Eps,
		})
		inst.mu.Lock()
		defer inst.mu.Unlock()
		summary, err := s.applyEdits(inst, tr, params, model, req.Edits, rec)
		if err != nil {
			s.proc.Counter("tmedbd.edit.rejected").Inc()
			s.fail(st, w, http.StatusBadRequest, err)
			return
		}
		if lg.Enabled() {
			lg.Event("edit.applied",
				tmedb.LogInt("ops", summary.Ops),
				tmedb.LogInt("reused", summary.Reused),
				tmedb.LogInt("applied", summary.Applied),
				tmedb.LogInt("noops", summary.Noops))
		}
		g, resp.Edit = inst.g, &summary
	}

	// The edits fingerprint (0 on /solve) keeps every delta's schedule
	// apart from the base trace's and from each other's.
	key := cacheKey{
		traceHash:     traceHash,
		traceN:        tr.N,
		traceHorizon:  tr.Horizon,
		traceContacts: len(tr.Contacts),
		src:           req.Src,
		t0:            req.T0,
		delay:         req.Delay,
		eps:           req.Eps,
		model:         req.model(),
		alg:           req.alg(),
		level:         req.level(),
		seed:          req.Seed,
		edits:         editsHash(req.Edits),
	}
	st.cache, resp.Cache = "miss", "miss"
	if !req.NoCache && !traceReq {
		if e, ok := s.cache.Get(key); ok {
			s.proc.Counter(rt.prefix + "cache.hits").Inc()
			st.cache, resp.Cache = "hit", "hit"
			if lg.Enabled() {
				lg.Event("solve.cache_hit")
			}
			s.writeSolve(st, w, resp, e.sched, e.meta, e.incomplete)
			return
		}
		s.proc.Counter(rt.prefix + "cache.misses").Inc()
	}

	qStart := time.Now()
	release, shed, err := s.admit(r.Context())
	s.qwait.Observe(float64(time.Since(qStart)) / float64(time.Millisecond))
	if err != nil {
		if errors.Is(err, errQueueFull) {
			w.Header().Set("Retry-After", "1")
			s.fail(st, w, http.StatusServiceUnavailable, err)
		} else {
			// The client went away while queued; nobody reads the body,
			// but close out the request cleanly.
			s.proc.Counter("tmedbd.cancelled").Inc()
			st.err = err
			writeError(w, statusClientClosedRequest, err)
		}
		return
	}
	defer release()
	if shed > 0 && lg.Enabled() {
		lg.Event("solve.shed", tmedb.LogInt("level", shed))
	}

	if g == nil {
		g = tr.ToTVEG(0, params, model)
	}
	sched, outcome, shedRungs, incomplete, err := s.solveGraph(r.Context(), &req.solveRequest, g, shed, rec)
	st.shedRungs, resp.ShedRungs = shedRungs, shedRungs
	if shedRungs > 0 {
		s.proc.Counter("tmedbd.shed.requests").Inc()
		s.proc.Counter("tmedbd.shed.rungs").Add(int64(shedRungs))
	}
	if err != nil {
		switch {
		case errors.Is(err, tmedb.ErrBudgetExceeded):
			s.fail(st, w, http.StatusGatewayTimeout, err)
		case errors.Is(err, tmedb.ErrCancelled):
			s.proc.Counter("tmedbd.cancelled").Inc()
			st.err = err
			writeError(w, statusClientClosedRequest, err)
		default:
			s.fail(st, w, http.StatusInternalServerError, err)
		}
		return
	}
	s.proc.Counter(rt.prefix + "solved").Inc()

	meta := &tmedb.ScheduleMeta{
		Algorithm: req.alg(),
		Model:     req.model(),
		Seed:      req.Seed,
		Trace:     traceName,
		Src:       req.Src,
		T0:        req.T0,
		Deadline:  req.T0 + req.Delay,
	}
	outcome.Annotate(meta)
	if outcome != nil {
		resp.Rung = outcome.Rung.String()
		resp.DegradeReason = outcome.Reason
		st.rung = resp.Rung
	}
	var report *tmedb.RunReport
	if rec != nil {
		rp := rec.Snapshot(map[string]string{
			"algorithm": meta.Algorithm,
			"model":     meta.Model,
			"trace":     traceName,
		})
		report = &rp
		meta.PhaseMS = rp.PhaseWallMS()
		st.phaseMS = meta.PhaseMS
		if req.Report {
			resp.Report = report
		}
	}

	// Only direct-path results enter the cache: nothing shed and no
	// degradation ladder engaged (outcome == nil), so the cached bytes
	// are exactly what an unbudgeted facade solve of the key would
	// produce. Ladder solves never fill — which rung answers depends on
	// the request's budget and ladder, neither of which is in the key,
	// so even a clean first-rung win (e.g. a request-supplied
	// ladder:"rand" under the default alg) may be a degraded answer for
	// the key's planner. The cached meta drops the phase timings: they
	// belong to this request, not to every later hit.
	if !req.NoCache && outcome == nil {
		cached := *meta
		cached.PhaseMS = nil
		s.cache.Put(key, cacheEntry{sched: sched, meta: &cached, incomplete: incomplete})
	}
	if traceReq {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Request-Id", st.id)
		if err := report.WriteTrace(w); err != nil {
			st.err = err
		}
		return
	}
	s.writeSolve(st, w, resp, sched, meta, incomplete)
}

// instance returns the live instance for key, creating an empty shell
// on first use; the shell's graph materializes lazily under the
// instance lock.
func (s *server) instance(key instanceKey) *editInstance {
	s.instMu.Lock()
	defer s.instMu.Unlock()
	if inst, ok := s.instances.Get(key); ok {
		return inst
	}
	inst := &editInstance{}
	s.instances.Put(key, inst)
	return inst
}

// applyEdits reconciles the live instance with the requested edit
// sequence: when the sequence extends what is already applied, only the
// suffix runs and the solve reuses the live graph's cost sets; anything
// else rebuilds the graph from the base trace first. A rejected edit
// leaves the instance on the successfully applied prefix — a state a
// shorter valid sequence still reaches — and fails the request. Callers hold
// inst.mu.
func (s *server) applyEdits(inst *editInstance, tr *tmedb.Trace, params tmedb.Params, model tmedb.Model, edits []editSpec, rec *tmedb.Recorder) (editSummary, error) {
	span := rec.StartPhase("edit.apply")
	defer span.End()
	sum := editSummary{Ops: len(edits)}
	if inst.g == nil || !prefixOf(inst.applied, edits) {
		if inst.g != nil {
			sum.Rebuilt = true
			s.proc.Counter("tmedbd.edit.rebuilds").Inc()
		}
		inst.g = tr.ToTVEG(0, params, model)
		inst.applied = nil
	}
	sum.Reused = len(inst.applied)
	s.proc.Counter("tmedbd.edit.reused").Add(int64(sum.Reused))
	for k := sum.Reused; k < len(edits); k++ {
		changed, err := edits[k].apply(inst.g)
		if err != nil {
			return sum, fmt.Errorf("edits[%d]: %w", k, err)
		}
		inst.applied = append(inst.applied, edits[k])
		sum.Applied++
		if !changed {
			sum.Noops++
		}
	}
	s.proc.Counter("tmedbd.edit.applied").Add(int64(sum.Applied))
	s.proc.Counter("tmedbd.edit.noops").Add(int64(sum.Noops))
	sum.Version = inst.g.Version()
	return sum, nil
}

// prefixOf reports whether applied is a leading prefix of edits.
func prefixOf(applied, edits []editSpec) bool {
	if len(applied) > len(edits) {
		return false
	}
	for k := range applied {
		if applied[k] != edits[k] {
			return false
		}
	}
	return true
}

// solveParams derives the graph-shaping parameters of a request.
func solveParams(req *solveRequest) tmedb.Params {
	params := tmedb.DefaultParams()
	if req.Eps > 0 {
		params.Eps = req.Eps
	}
	return params
}

// solveGraph runs the planner stack for one admitted request on its
// graph: a fresh one on /solve, the live edited instance on /edit.
// Unshed, unbudgeted requests take the direct path: the requested
// planner's ScheduleCtx, byte-identical to a CLI/facade solve. A
// positive budget or a shed level engages the degradation ladder, which
// plans model-true (the fading family on fading graphs) so every
// fallback stays T/ε-feasible. The int result is the number of
// ladder rungs the shed level actually removed — zero when the ladder,
// already bounded by the requested planner, starts at or below the shed
// rung.
func (s *server) solveGraph(ctx context.Context, req *solveRequest, g *tmedb.Graph, shed int, rec *tmedb.Recorder) (tmedb.Schedule, *tmedb.DegradeOutcome, int, []int, error) {
	workers := s.effectiveWorkers(req.Workers)
	deadline := req.T0 + req.Delay

	var err error
	var sched tmedb.Schedule
	var outcome *tmedb.DegradeOutcome
	shedRungs := 0
	if req.budget() > 0 || shed > 0 {
		ladder, lerr := tmedb.ParseLadder(req.Ladder)
		if lerr != nil {
			return nil, nil, 0, nil, lerr
		}
		// The request's planner bounds the best rung (a greed request
		// must not be upgraded to a full Steiner solve), then shedding
		// lowers the start further. Only the second trim is load
		// shedding; shedRungs reports the rungs it actually removed.
		ladder = tmedb.ShedLadder(ladder, degrade.RungFor(req.alg()))
		bounded := len(ladder)
		ladder = tmedb.ShedLadder(ladder, tmedb.DegradeRung(shed))
		shedRungs = bounded - len(ladder)
		sched, outcome, err = tmedb.SolveWithLadder(ctx, g, tmedb.NodeID(req.Src), req.T0, deadline, tmedb.DegradeOptions{
			Budget:  req.budget(),
			Ladder:  ladder,
			Level:   req.level(),
			Workers: workers,
			Seed:    req.Seed,
			Obs:     rec,
		})
	} else {
		var alg core.Scheduler
		if alg, err = core.New(req.alg(), req.level(), req.Seed, workers, rec); err == nil {
			sched, err = alg.ScheduleCtx(ctx, g, tmedb.NodeID(req.Src), req.T0, deadline)
		}
	}

	var inc *tmedb.IncompleteError
	switch {
	case err == nil:
		return sched, outcome, shedRungs, nil, nil
	case errors.As(err, &inc):
		uncovered := make([]int, len(inc.Uncovered))
		for i, n := range inc.Uncovered {
			uncovered[i] = int(n)
		}
		return sched, outcome, shedRungs, uncovered, nil
	default:
		return nil, nil, shedRungs, nil, err
	}
}

// effectiveWorkers caps a request's worker ask by the daemon's per-solve
// bound; 0 inherits the daemon default.
func (s *server) effectiveWorkers(ask int) int {
	if ask <= 0 {
		return s.cfg.workers
	}
	if s.cfg.workers > 0 && ask > s.cfg.workers {
		return s.cfg.workers
	}
	return ask
}

// statusClientClosedRequest mirrors nginx's non-standard 499: the client
// cancelled before the daemon could answer. Nothing reads the body; the
// code keeps access logs honest.
const statusClientClosedRequest = 499

func (s *server) writeSolve(st *reqState, w http.ResponseWriter, resp solveResponse, sched tmedb.Schedule, meta *tmedb.ScheduleMeta, incomplete []int) {
	var buf bytes.Buffer
	if err := tmedb.WriteScheduleJSONMeta(&buf, sched, meta); err != nil {
		s.fail(st, w, http.StatusInternalServerError, err)
		return
	}
	resp.Schedule = json.RawMessage(buf.Bytes())
	resp.Incomplete = incomplete
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// fail records the terminal error in the request state (for the flight
// record and the solve.failed event) and answers it.
func (s *server) fail(st *reqState, w http.ResponseWriter, code int, err error) {
	s.proc.Counter("tmedbd.errors").Inc()
	st.err = err
	writeError(w, code, err)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
