package dse

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// newTestServer builds the service shape cmd/r3dlad wires: the lab
// server with the explore endpoint mounted as an extension route.
func newTestServer(t *testing.T, opts ...lab.ServerOption) (*httptest.Server, *lab.Lab) {
	t.Helper()
	l, err := lab.New(lab.WithBudget(2000), lab.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	h := lab.NewServer(l, opts...)
	h.Handle("POST /v1/explore", NewHandler(l, h))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, l
}

func postExplore(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/explore", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

const exploreBody = `{
  "space": {"workloads":["mcf"],"budget":2000,"axes":{"preset":["dla","r3"],"boq_size":[64,512]}},
  "strategy": "pareto", "seed": 4, "samples": 3, "rounds": 1
}`

func TestExploreEndpointStreams(t *testing.T) {
	srv, l := newTestServer(t)
	resp := postExplore(t, srv.URL, exploreBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	var lines []sweep.StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line sweep.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 cells + result", len(lines))
	}
	for _, line := range lines[:3] {
		if line.Event != "cell" || line.Run == nil || line.Cell == nil {
			t.Fatalf("cell line wrong: %+v", line)
		}
		if line.Run.EnergyJ <= 0 {
			t.Fatalf("cell result misses energy: %+v", line.Run)
		}
	}
	last := lines[3]
	if last.Event != "result" || last.Result == nil || last.Result.ID != "explore" {
		t.Fatalf("terminal line wrong: %+v", last)
	}
	if l.RunCount() != 3 {
		t.Fatalf("executed %d simulations, want 3", l.RunCount())
	}
}

// TestExploreEndpointValidation asserts bad explore specs are proper
// 400s with field-level messages, before the stream commits to 200.
func TestExploreEndpointValidation(t *testing.T) {
	srv, _ := newTestServer(t, lab.WithMaxBudget(5000))
	cases := []struct {
		name, body, wantMsg string
	}{
		{"malformed json", `{`, "explore spec"},
		{"unknown field", `{"space":{},"temperature":1}`, "unknown field"},
		{"unknown strategy", `{"space":{"workloads":["mcf"]},"strategy":"anneal"}`, "unknown strategy"},
		{"unknown workload", `{"space":{"workloads":["nosuch"]}}`, "unknown workload"},
		{"budget over cap", `{"space":{"workloads":["mcf"],"budget":9000}}`, "exceeds server cap"},
		{"halving without budget", `{"space":{"workloads":["mcf"]},"strategy":"halving"}`, "halving needs an explicit space budget"},
	}
	for _, c := range cases {
		resp := postExplore(t, srv.URL, c.body)
		var body struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s: decoding error body: %v", c.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body.Error)
			continue
		}
		if !strings.Contains(body.Error, c.wantMsg) {
			t.Errorf("%s: error %q does not mention %q", c.name, body.Error, c.wantMsg)
		}
	}
}
