package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/tveg"
)

// solveRequest is the JSON body of POST /solve. Exactly one trace source
// — inline text, a server-side file reference, or a synthetic generator
// ref — must be set.
type solveRequest struct {
	// Alg selects the planner: eedcb|greed|rand|fr-eedcb|fr-greed|fr-rand
	// (default fr-eedcb).
	Alg string `json:"alg,omitempty"`
	// Model selects the channel model: static|rayleigh|rician|nakagami
	// (default static).
	Model string `json:"model,omitempty"`

	// Trace is an inline contact trace (any format ReadTrace accepts,
	// e.g. the native "# haggle-trace v1" text).
	Trace string `json:"trace,omitempty"`
	// TraceFile references a trace file under the daemon's -traces root.
	TraceFile string `json:"trace_file,omitempty"`
	// Synthetic asks for the deterministic synthetic Haggle-like trace.
	Synthetic *syntheticRef `json:"synthetic,omitempty"`

	// Src is the broadcast source node.
	Src int `json:"src"`
	// T0 is the broadcast release time (seconds into the trace).
	T0 float64 `json:"t0"`
	// Delay is the delay constraint T in seconds; the absolute deadline
	// is T0+Delay.
	Delay float64 `json:"delay"`
	// Eps overrides the residual failure bound ε (0 = the §VII default).
	Eps float64 `json:"eps,omitempty"`
	// Level is the recursive-greedy Steiner level of (FR-)EEDCB
	// (default 2).
	Level int `json:"level,omitempty"`
	// Seed drives the RAND planners and is part of the cache key.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the solver's worker pools for this request, capped
	// by the daemon's -workers (0 = the daemon default). Schedules are
	// identical for every value.
	Workers int `json:"workers,omitempty"`
	// DeadlineMS is the per-request solve budget in milliseconds. A
	// positive value engages the degradation ladder, which falls to
	// cheaper planners as the budget runs out; 0 plans unbudgeted.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Ladder overrides the degradation ladder for budgeted solves
	// ("full,spt,greed,rand" rung names).
	Ladder string `json:"ladder,omitempty"`
	// Report asks for the per-request obs run report in the response.
	Report bool `json:"report,omitempty"`
	// NoCache bypasses the schedule cache for this request (both lookup
	// and fill).
	NoCache bool `json:"no_cache,omitempty"`

	// channel is the parsed Model, set by validate.
	channel tveg.Model
}

// syntheticRef names a deterministic synthetic trace: GenerateTrace with
// default shape parameters, N nodes, and the given seed.
type syntheticRef struct {
	N    int   `json:"n"`
	Seed int64 `json:"seed"`
}

// solveResponse is the JSON body of a successful solve.
type solveResponse struct {
	// ReqID is the daemon-minted request ID; the same ID tags every
	// structured log line of this request and its flight-recorder entry,
	// so a response can be joined to its server-side telemetry.
	ReqID string `json:"req_id,omitempty"`
	// Schedule is the standard schedule envelope ({version, meta,
	// transmissions}) — the same shape tmedb -o writes and
	// ReadScheduleJSONMeta parses.
	Schedule json.RawMessage `json:"schedule"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	// ShedRungs counts the degradation-ladder rungs admission control
	// actually removed for this request because the queue was deep
	// (0 = unshed). A shed level at or below the requested planner's
	// best rung removes nothing and reports 0.
	ShedRungs int `json:"shed_rungs,omitempty"`
	// Rung names the degradation-ladder rung that produced the schedule
	// (budgeted or shed solves only).
	Rung string `json:"rung,omitempty"`
	// DegradeReason explains why earlier rungs were abandoned.
	DegradeReason string `json:"degrade_reason,omitempty"`
	// Incomplete lists nodes the planner could not cover within the
	// delay window (the schedule is still valid for the covered nodes).
	Incomplete []int `json:"incomplete,omitempty"`
	// Report is the per-request obs run report, when requested.
	Report *tmedb.RunReport `json:"report,omitempty"`
	// Edit summarizes the edit reconciliation (POST /edit only).
	Edit *editSummary `json:"edit,omitempty"`
}

// editRequest is the JSON body of POST /edit: a solve request plus the
// full edit sequence (from the base trace) to apply before solving. The
// sequence is the complete delta, not an increment — the daemon reuses
// a live instance when the sequence extends the one already applied,
// and rebuilds from the base trace otherwise, so the answer never
// depends on instance state.
type editRequest struct {
	solveRequest
	// Edits is the full edit sequence from the base trace, in order.
	Edits []editSpec `json:"edits"`
}

// editSpec is one edit operation.
type editSpec struct {
	// Op is "add", "remove", or "retime".
	Op string `json:"op"`
	// I, J name the edge's endpoints.
	I int `json:"i"`
	J int `json:"j"`
	// Start/End delimit the contact window: the interval added or
	// removed, or the exact window of the contact a retime moves.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Dist is the contact distance in meters (add only).
	Dist float64 `json:"dist,omitempty"`
	// ToStart/ToEnd is the retime target window.
	ToStart float64 `json:"to_start,omitempty"`
	ToEnd   float64 `json:"to_end,omitempty"`
}

func (e *editSpec) validate(k int) error {
	switch e.Op {
	case "add":
		if e.Dist <= 0 {
			return fmt.Errorf("edits[%d]: add needs dist > 0 (got %g)", k, e.Dist)
		}
	case "remove":
	case "retime":
		if e.ToStart >= e.ToEnd {
			return fmt.Errorf("edits[%d]: retime target [%g,%g) is empty", k, e.ToStart, e.ToEnd)
		}
	default:
		return fmt.Errorf("edits[%d]: unknown op %q", k, e.Op)
	}
	if e.I < 0 || e.J < 0 || e.I == e.J {
		return fmt.Errorf("edits[%d]: bad pair (%d,%d)", k, e.I, e.J)
	}
	if e.Start >= e.End {
		return fmt.Errorf("edits[%d]: window [%g,%g) is empty", k, e.Start, e.End)
	}
	return nil
}

// apply runs the edit against a live graph, reporting whether the graph
// actually changed (no-op removals and identity retimes do not).
func (e *editSpec) apply(g *tmedb.Graph) (bool, error) {
	i, j := tmedb.NodeID(e.I), tmedb.NodeID(e.J)
	iv := tmedb.Interval{Start: e.Start, End: e.End}
	switch e.Op {
	case "add":
		g.AddContact(i, j, iv, e.Dist)
		return true, nil
	case "remove":
		return g.RemoveContact(i, j, iv), nil
	default: // "retime" — validate() bounds the op set
		return g.RetimeChannel(i, j, iv, tmedb.Interval{Start: e.ToStart, End: e.ToEnd})
	}
}

func (r *editRequest) validate() error {
	if err := r.solveRequest.validate(); err != nil {
		return err
	}
	if len(r.Edits) == 0 {
		return fmt.Errorf("edits must be non-empty (use /solve for plain solves)")
	}
	for k := range r.Edits {
		if err := r.Edits[k].validate(k); err != nil {
			return err
		}
	}
	return nil
}

// editsHash fingerprints an edit sequence for the schedule-cache key;
// no edits (every /solve) hash to 0.
func editsHash(edits []editSpec) uint64 {
	if len(edits) == 0 {
		return 0
	}
	h := fnv.New64a()
	for _, e := range edits {
		fmt.Fprintf(h, "%s|%d|%d|%x|%x|%x|%x|%x\n",
			e.Op, e.I, e.J, e.Start, e.End, e.Dist, e.ToStart, e.ToEnd)
	}
	return h.Sum64()
}

// editSummary reports what POST /edit did to the live instance before
// solving.
type editSummary struct {
	// Ops is the length of the requested edit sequence.
	Ops int `json:"ops"`
	// Reused counts leading ops already applied to the live instance
	// (the incremental prefix); Applied counts the ops this request
	// applied; Noops counts applied ops that did not change the graph.
	Reused  int `json:"reused"`
	Applied int `json:"applied"`
	Noops   int `json:"noops"`
	// Rebuilt reports that the instance was reconstructed from the base
	// trace because the sequence did not extend the live one.
	Rebuilt bool `json:"rebuilt,omitempty"`
	// Version is the graph version after the edits.
	Version uint64 `json:"version"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
}

func (r *solveRequest) validate() error {
	sources := 0
	if r.Trace != "" {
		sources++
	}
	if r.TraceFile != "" {
		sources++
	}
	if r.Synthetic != nil {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("exactly one of trace, trace_file, synthetic required (got %d)", sources)
	}
	if r.Synthetic != nil && r.Synthetic.N <= 0 {
		return fmt.Errorf("synthetic.n must be positive (got %d)", r.Synthetic.N)
	}
	if r.Synthetic != nil && r.Synthetic.N > maxNodes {
		return fmt.Errorf("synthetic.n %d is above the %d-node bound", r.Synthetic.N, maxNodes)
	}
	if r.Src < 0 {
		return fmt.Errorf("src must be >= 0 (got %d)", r.Src)
	}
	if r.Delay <= 0 {
		return fmt.Errorf("delay must be positive (got %g)", r.Delay)
	}
	if r.Eps < 0 || r.Eps >= 1 {
		return fmt.Errorf("eps must be in [0, 1) (got %g)", r.Eps)
	}
	if r.Level < 0 {
		return fmt.Errorf("level must be >= 0 (got %d)", r.Level)
	}
	if r.Workers < 0 {
		return fmt.Errorf("workers must be >= 0 (got %d)", r.Workers)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be >= 0 (got %d)", r.DeadlineMS)
	}
	if r.Ladder != "" {
		if _, err := tmedb.ParseLadder(r.Ladder); err != nil {
			return err
		}
	}
	var err error
	if r.channel, err = tveg.ParseModel(r.model()); err != nil {
		return err
	}
	if _, err = core.New(r.alg(), 0, 0, 0, nil); err != nil {
		return fmt.Errorf("unknown alg %q", r.alg())
	}
	return nil
}

func (r *solveRequest) alg() string {
	if r.Alg == "" {
		return "fr-eedcb"
	}
	return strings.ToLower(r.Alg)
}

func (r *solveRequest) model() string {
	if r.Model == "" {
		return "static"
	}
	return strings.ToLower(r.Model)
}

func (r *solveRequest) level() int {
	if r.Level == 0 {
		return 2
	}
	return r.Level
}

func (r *solveRequest) budget() time.Duration {
	return time.Duration(r.DeadlineMS) * time.Millisecond
}

// maxNodes bounds the node count a request may name. A trace is read,
// or generated, before admission control sees the request; the graph
// holds per-node slices of N entries, and a synthetic trace's contacts
// grow as N². At 1,024 nodes a synthetic trace holds 1.9M contacts, the
// order of the 1.1M native contact lines the default 64 MiB body lets
// an inline trace carry, and far above the N ≤ 30 of the paper's
// figures.
const maxNodes = 1024

// readTrace parses an inline or file trace, refusing one that names more
// than maxNodes nodes before anything is built from it.
func readTrace(rd io.Reader) (*tmedb.Trace, error) {
	tr, err := tmedb.ReadTrace(rd)
	if err == nil && tr.N > maxNodes {
		return nil, fmt.Errorf("trace has %d nodes, above the %d-node bound", tr.N, maxNodes)
	}
	return tr, err
}

// resolveTrace materializes the request's trace source. File references
// are confined to the daemon's trace root: a daemon without one rejects
// them, and paths may not escape it.
func (s *server) resolveTrace(r *solveRequest) (*tmedb.Trace, string, error) {
	switch {
	case r.Trace != "":
		tr, err := readTrace(strings.NewReader(r.Trace))
		if err != nil {
			return nil, "", err
		}
		return tr, "inline", nil
	case r.Synthetic != nil:
		tr := tmedb.GenerateTrace(tmedb.TraceOptions{N: r.Synthetic.N}, r.Synthetic.Seed)
		return tr, fmt.Sprintf("synthetic(n=%d,seed=%d)", r.Synthetic.N, r.Synthetic.Seed), nil
	default:
		if s.cfg.traceDir == "" {
			return nil, "", fmt.Errorf("trace_file refs disabled (daemon started without -traces)")
		}
		rel := filepath.Clean(r.TraceFile)
		if filepath.IsAbs(rel) || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
			return nil, "", fmt.Errorf("trace_file %q escapes the trace root", r.TraceFile)
		}
		path := filepath.Join(s.cfg.traceDir, rel)
		f, err := os.Open(path)
		if err != nil {
			return nil, "", fmt.Errorf("trace_file: %w", err)
		}
		defer f.Close()
		tr, err := readTrace(f)
		if err != nil {
			return nil, "", fmt.Errorf("trace_file %q: %w", r.TraceFile, err)
		}
		return tr, rel, nil
	}
}
