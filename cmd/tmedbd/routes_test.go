package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// Golden hashes of TestRoutesGolden's transcript, one per section.
const (
	routesGoldenResponses = "5a5c7b79847fc5339cd7db6290f97c3bad39f5b2caf4514fd2bfd7b3e94e6e6f"
	routesGoldenCounters  = "b74d22db6322d138cdd581491d962ba9e59c280dadf4935101712fd034403738"
	routesGoldenFlight    = "812e062fe44d92e76208ff3fd8f31df1c8dc1e670dd5d9264263df7866a3cd66"
)

// routeStep is one request of TestRoutesGolden's fixed sequence.
type routeStep struct {
	name, method, path, body string
}

// routeSteps drives both routes through every answer they give: cache
// miss, hit and bypass, a ladder answer, a trace export, the live
// instance's extend/repeat/rebuild/reject paths, and each kind of 4xx.
func routeSteps() []routeStep {
	const base = `"alg":"greed","model":"static","synthetic":{"n":16,"seed":1},"t0":9000,"delay":2000`
	solve := func(extra string) string { return "{" + base + extra + "}" }
	edit := func(edits ...string) string {
		return "{" + base + `,"src":0,"edits":[` + strings.Join(edits, ",") + "]}"
	}
	e1 := `{"op":"add","i":0,"j":9,"start":9050,"end":9400,"dist":2}`
	e2 := `{"op":"remove","i":0,"j":9,"start":9300,"end":9400}`
	e3 := `{"op":"add","i":9,"j":14,"start":9700,"end":10100,"dist":3}`
	alt := `{"op":"add","i":0,"j":3,"start":9100,"end":9500,"dist":4}`
	badRetime := `{"op":"retime","i":0,"j":1,"start":1,"end":2,"to_start":10,"to_end":11}`
	outOfRange := `{"op":"add","i":0,"j":99,"start":1,"end":2,"dist":1}`
	return []routeStep{
		{"solve cold", "POST", "/solve", solve(`,"src":0`)},
		{"solve repeat", "POST", "/solve", solve(`,"src":0`)},
		{"solve no_cache", "POST", "/solve", solve(`,"src":0,"no_cache":true`)},
		{"solve ladder", "POST", "/solve", solve(`,"src":3,"deadline_ms":60000,"ladder":"rand"`)},
		{"solve trace", "POST", "/solve?trace=1", solve(`,"src":3`)},
		{"solve GET", "GET", "/solve", ""},
		{"solve bad JSON", "POST", "/solve", `{"alg":`},
		{"solve edits field", "POST", "/solve", solve(`,"src":0,"edits":[` + e1 + "]")},
		{"solve src out of range", "POST", "/solve", solve(`,"src":16`)},
		{"solve window outside horizon", "POST", "/solve", `{"synthetic":{"n":16,"seed":1},"src":0,"t0":1e9,"delay":10}`},
		{"edit first", "POST", "/edit", edit(e1, e2)},
		{"edit extend", "POST", "/edit", edit(e1, e2, e3)},
		{"edit repeat", "POST", "/edit", edit(e1, e2, e3)},
		{"edit rebuild", "POST", "/edit", edit(alt)},
		{"edit rejected retime", "POST", "/edit", edit(badRetime)},
		{"edit trace", "POST", "/edit?trace=1", edit(e1)},
		{"edit empty", "POST", "/edit", edit()},
		{"edit pair out of range", "POST", "/edit", edit(outOfRange)},
	}
}

// TestRoutesGolden pins what /solve and /edit answer, count and record
// over a fixed request sequence on one fresh daemon. It speaks only
// HTTP: each response's status and body (req_id and report removed; a
// ?trace=1 answer by status and content type only), the tmedbd
// counters at /metrics afterwards, and each flight record's status,
// cache verdict, rung and error are hashed per section.
func TestRoutesGolden(t *testing.T) {
	ts := httptest.NewServer(newServer(defaultConfig()).handler())
	defer ts.Close()
	client := ts.Client()
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var responses []string
	for _, step := range routeSteps() {
		req, err := http.NewRequest(step.method, ts.URL+step.path, strings.NewReader(step.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		line := fmt.Sprintf("%s: %d", step.name, resp.StatusCode)
		if strings.Contains(step.path, "trace=1") {
			line += " " + resp.Header.Get("Content-Type")
		} else {
			var body map[string]any
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("%s: body is not a JSON object: %v: %s", step.name, err, data)
			}
			delete(body, "req_id")
			delete(body, "report")
			canon, _ := json.Marshal(body)
			line += " " + string(canon)
		}
		responses = append(responses, line)
	}

	var counters []string
	isCounter := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(string(get("/metrics"))))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE" && f[3] == "counter":
			isCounter[f[2]] = true
		case len(f) == 2 && isCounter[f[0]] && strings.HasPrefix(f[0], "tmedbd_"):
			counters = append(counters, f[0]+" "+f[1])
		}
	}

	var page struct {
		Requests []struct {
			Status int    `json:"status"`
			Cache  string `json:"cache"`
			Rung   string `json:"rung"`
			Err    string `json:"err"`
		} `json:"requests"`
	}
	if err := json.Unmarshal(get("/debug/requests"), &page); err != nil {
		t.Fatal(err)
	}
	var flight []string
	for _, r := range page.Requests {
		flight = append(flight, fmt.Sprintf("%d|%s|%s|%s", r.Status, r.Cache, r.Rung, r.Err))
	}

	for _, sec := range []struct {
		name  string
		lines []string
		want  string
	}{
		{"responses", responses, routesGoldenResponses},
		{"counters", counters, routesGoldenCounters},
		{"flight records", flight, routesGoldenFlight},
	} {
		text := strings.Join(sec.lines, "\n")
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != sec.want {
			t.Errorf("%s hash %s, want %s:\n%s", sec.name, got, sec.want, text)
		}
	}
}
