package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/tveg"
)

// editBody builds a POST /edit body for a synthetic-trace instance.
func editBody(in instance, edits []editSpec, extra func(*solveRequest)) []byte {
	req := editRequest{
		solveRequest: solveRequest{
			Alg:       in.alg,
			Model:     in.model,
			Synthetic: &syntheticRef{N: in.n, Seed: in.seed},
			Src:       in.src,
			T0:        soakT0,
			Delay:     soakDelay,
			Seed:      in.seed,
		},
		Edits: edits,
	}
	if extra != nil {
		extra(&req.solveRequest)
	}
	b, _ := json.Marshal(req)
	return b
}

func postEdit(client *http.Client, url string, body []byte) (int, solveResponse, string, error) {
	resp, err := client.Post(url+"/edit", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, solveResponse{}, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, solveResponse{}, "", err
	}
	var sr solveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &sr); err != nil {
			return resp.StatusCode, sr, "", fmt.Errorf("bad edit response: %w (%s)", err, data)
		}
	}
	return resp.StatusCode, sr, string(data), nil
}

// expectedEdited replays the edit sequence onto a fresh facade graph and
// solves it directly — the cold ground truth every /edit answer must
// match byte for byte.
func expectedEdited(t *testing.T, in instance, edits []editSpec) tmedb.Schedule {
	t.Helper()
	tr := tmedb.GenerateTrace(tmedb.TraceOptions{N: in.n}, in.seed)
	model, err := tveg.ParseModel(in.model)
	if err != nil {
		t.Fatal(err)
	}
	g := tr.ToTVEG(0, tmedb.DefaultParams(), model)
	for k := range edits {
		if _, err := edits[k].apply(g); err != nil {
			t.Fatalf("replay edit %d: %v", k, err)
		}
	}
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

// editWorkload is the shared fixture: a synthetic trace plus an edit
// sequence that grows across requests. The added contacts sit inside the
// soak solve window so the edits actually move the schedule.
var editWorkload = struct {
	in    instance
	edits []editSpec
}{
	in: instance{alg: "greed", model: "static", n: 16, seed: 1, src: 0},
	edits: []editSpec{
		{Op: "add", I: 0, J: 9, Start: soakT0 + 50, End: soakT0 + 400, Dist: 2},
		{Op: "remove", I: 0, J: 9, Start: soakT0 + 300, End: soakT0 + 400},
		{Op: "add", I: 9, J: 14, Start: soakT0 + 700, End: soakT0 + 1100, Dist: 3},
		{Op: "retime", I: 9, J: 14, Start: soakT0 + 700, End: soakT0 + 1100,
			ToStart: soakT0 + 800, ToEnd: soakT0 + 1200},
	},
}

// TestEditSolveMatchesColdSolve is the daemon-tier byte-identity gate:
// every prefix of the edit sequence, solved via POST /edit (live
// instance, reused cost sets), must equal a direct facade solve of a
// fresh graph with the same edits replayed — and growing sequences must
// reuse the live instance instead of rebuilding.
func TestEditSolveMatchesColdSolve(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	in, edits := editWorkload.in, editWorkload.edits

	for k := 1; k <= len(edits); k++ {
		code, sr, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, edits[:k], nil))
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusOK {
			t.Fatalf("prefix %d: status %d: %s", k, code, raw)
		}
		want := scheduleBytes(t, expectedEdited(t, in, edits[:k]))
		got := scheduleBytes(t, decodeSchedule(t, sr))
		if !bytes.Equal(got, want) {
			t.Fatalf("prefix %d: /edit schedule diverges from cold facade replay\n got: %s\nwant: %s", k, got, want)
		}
		if sr.Edit == nil {
			t.Fatalf("prefix %d: response missing edit summary: %s", k, raw)
		}
		if sr.Edit.Ops != k {
			t.Fatalf("prefix %d: summary ops %d", k, sr.Edit.Ops)
		}
		// Each request extends the previous one by a single op: the live
		// instance serves the prefix, only the new op is applied.
		if wantReused := k - 1; sr.Edit.Reused != wantReused || sr.Edit.Applied != 1 || sr.Edit.Rebuilt {
			t.Fatalf("prefix %d: summary %+v, want reused=%d applied=1 rebuilt=false", k, sr.Edit, wantReused)
		}
	}
	if v := srv.proc.Counter("tmedbd.edit.rebuilds").Value(); v != 0 {
		t.Fatalf("monotone sequence forced %d rebuilds", v)
	}

	// Same full sequence again: the schedule cache answers, and the
	// instance reuses every op.
	code, sr, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, edits, nil))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("repeat: status %d: %s", code, raw)
	}
	if sr.Cache != "hit" {
		t.Fatalf("repeat solve cache = %q, want hit", sr.Cache)
	}
	if sr.Edit.Reused != len(edits) || sr.Edit.Applied != 0 {
		t.Fatalf("repeat summary %+v, want everything reused", sr.Edit)
	}

	// A diverging sequence (different first op) must rebuild — never
	// answer from the edited instance — and still match its own cold
	// replay.
	alt := []editSpec{{Op: "add", I: 0, J: 3, Start: soakT0 + 100, End: soakT0 + 500, Dist: 4}}
	code, sr, raw, err = postEdit(ts.Client(), ts.URL, editBody(in, alt, nil))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("diverging: status %d: %s", code, raw)
	}
	if !sr.Edit.Rebuilt {
		t.Fatalf("diverging sequence did not rebuild: %+v", sr.Edit)
	}
	want := scheduleBytes(t, expectedEdited(t, in, alt))
	if got := scheduleBytes(t, decodeSchedule(t, sr)); !bytes.Equal(got, want) {
		t.Fatalf("diverging /edit schedule diverges from cold replay\n got: %s\nwant: %s", got, want)
	}
}

// TestEditConcurrentWithSolve hammers POST /edit and POST /solve on the
// same trace concurrently (CI runs this package -race -count=2): /solve
// must keep answering the unedited base byte-identically, and every
// /edit answer must match the cold replay of exactly the sequence it
// carried.
func TestEditConcurrentWithSolve(t *testing.T) {
	cfg := defaultConfig()
	cfg.maxConcurrent = 4
	cfg.maxQueue = 64
	srv := newServer(cfg)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	in, edits := editWorkload.in, editWorkload.edits

	wantBase := scheduleBytes(t, expected(t, in))
	wantEdited := make([][]byte, len(edits)+1)
	for k := 1; k <= len(edits); k++ {
		wantEdited[k] = scheduleBytes(t, expectedEdited(t, in, edits[:k]))
	}

	const clients = 8
	const iters = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				if c%2 == 0 {
					// Solver client: the base trace, no edits, bypassing the
					// cache so every request truly solves.
					code, sr, err := postSolve(ts.Client(), ts.URL, solveBody(in, func(r *solveRequest) { r.NoCache = true }))
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("solve client %d: status %d err %v", c, code, err)
						return
					}
					if got := sr.Schedule; !jsonScheduleEqual(got, wantBase) {
						errs <- fmt.Errorf("solve client %d: schedule diverges from unedited base", c)
						return
					}
				} else {
					// Edit client: a growing prefix of the shared sequence.
					k := 1 + (c+it)%len(edits)
					code, sr, raw, err := postEdit(ts.Client(), ts.URL,
						editBody(in, edits[:k], func(r *solveRequest) { r.NoCache = true }))
					if err != nil || code != http.StatusOK {
						errs <- fmt.Errorf("edit client %d: status %d err %v: %s", c, code, err, raw)
						return
					}
					if got := sr.Schedule; !jsonScheduleEqual(got, wantEdited[k]) {
						errs <- fmt.Errorf("edit client %d: prefix %d schedule diverges from cold replay", c, k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// jsonScheduleEqual compares a response's schedule envelope against
// canonical schedule bytes, ignoring the meta wrapper.
func jsonScheduleEqual(envelope json.RawMessage, want []byte) bool {
	sched, _, err := tmedb.ReadScheduleJSONMeta(bytes.NewReader(envelope))
	if err != nil {
		return false
	}
	got, err := json.Marshal(sched)
	if err != nil {
		return false
	}
	return bytes.Equal(got, want)
}

// TestEditValidation pins the request-level error taxonomy of /edit.
func TestEditValidation(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	in := editWorkload.in

	for _, tc := range []struct {
		name  string
		edits []editSpec
	}{
		{"empty-sequence", nil},
		{"unknown-op", []editSpec{{Op: "warp", I: 0, J: 1, Start: 1, End: 2}}},
		{"self-loop", []editSpec{{Op: "add", I: 3, J: 3, Start: 1, End: 2, Dist: 1}}},
		{"empty-window", []editSpec{{Op: "remove", I: 0, J: 1, Start: 5, End: 5}}},
		{"add-no-dist", []editSpec{{Op: "add", I: 0, J: 1, Start: 1, End: 2}}},
		{"retime-empty-target", []editSpec{{Op: "retime", I: 0, J: 1, Start: 1, End: 2, ToStart: 9, ToEnd: 9}}},
		{"node-out-of-range", []editSpec{{Op: "add", I: 0, J: 99, Start: 1, End: 2, Dist: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, tc.edits, nil))
			if err != nil {
				t.Fatal(err)
			}
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", code, raw)
			}
		})
	}
}

// TestEditRejectedOpKeepsInstanceUsable: an edit the graph rejects
// (retiming a contact that does not exist) answers 400, counts in
// tmedbd.edit.rejected, and leaves the live instance able to serve the
// next valid request.
func TestEditRejectedOpKeepsInstanceUsable(t *testing.T) {
	srv := newServer(defaultConfig())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	in := editWorkload.in

	bad := []editSpec{{Op: "retime", I: 0, J: 1, Start: 1, End: 2, ToStart: 10, ToEnd: 11}}
	code, _, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, bad, nil))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusBadRequest {
		t.Fatalf("rejected retime: status %d, want 400: %s", code, raw)
	}
	if v := srv.proc.Counter("tmedbd.edit.rejected").Value(); v != 1 {
		t.Fatalf("tmedbd.edit.rejected = %d, want 1", v)
	}

	good := []editSpec{{Op: "add", I: 0, J: 9, Start: soakT0 + 50, End: soakT0 + 400, Dist: 2}}
	code, sr, raw, err := postEdit(ts.Client(), ts.URL, editBody(in, good, nil))
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK {
		t.Fatalf("valid edit after rejection: status %d: %s", code, raw)
	}
	want := scheduleBytes(t, expectedEdited(t, in, good))
	if got := scheduleBytes(t, decodeSchedule(t, sr)); !bytes.Equal(got, want) {
		t.Fatalf("post-rejection /edit diverges from cold replay\n got: %s\nwant: %s", got, want)
	}
}
