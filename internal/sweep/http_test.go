package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"r3dla/internal/lab"
)

// newTestServer builds the full service shape cmd/r3dlad wires: the lab
// server with the sweep endpoint mounted as an extension route.
func newTestServer(t *testing.T, opts ...lab.ServerOption) (*httptest.Server, *lab.Lab) {
	t.Helper()
	l, err := lab.New(lab.WithBudget(2000), lab.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	h := lab.NewServer(l, opts...)
	h.Handle("POST /v1/sweeps", NewHandler(l, h))
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, l
}

func postSweep(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSweepEndpointStreams(t *testing.T) {
	const body = `{"workloads":["mcf"],"budget":2000,"axes":{"preset":["dla","r3"]}}`
	srv, l := newTestServer(t)
	resp := postSweep(t, srv.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	var lines []StreamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 cells + result", len(lines))
	}
	seen := map[int]bool{}
	for _, line := range lines[:2] {
		if line.Event != "cell" || line.Total != 2 || line.Run == nil || line.Cell == nil {
			t.Fatalf("cell line wrong: %+v", line)
		}
		seen[line.Done] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("done counts wrong: %v", seen)
	}
	last := lines[2]
	if last.Event != "result" || last.Result == nil || len(last.Result.Tables) == 0 {
		t.Fatalf("terminal line wrong: %+v", last)
	}
	if got := len(last.Result.Tables[0].Rows); got != 2 {
		t.Fatalf("grid table has %d rows, want 2", got)
	}
	if l.RunCount() != 2 {
		t.Fatalf("executed %d simulations, want 2", l.RunCount())
	}

	// The streamed report is the local engine's rendering, byte for byte.
	var spec Spec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), l, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := last.Result.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := res.Report().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed report differs from the local rendering:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}
}

// TestSweepEndpointValidation asserts bad sweep specs are proper 400s
// with field-level messages, before the stream commits to 200.
func TestSweepEndpointValidation(t *testing.T) {
	srv, _ := newTestServer(t, lab.WithMaxBudget(10_000))
	for _, tc := range []struct {
		name, body, want string
		status           int
	}{
		{"malformed", `not json`, "sweep spec", http.StatusBadRequest},
		{"unknown field", `{"workloads":["mcf"],"bogus":1}`, "bogus", http.StatusBadRequest},
		{"no workloads", `{"axes":{"preset":["dla"]}}`, "workloads", http.StatusBadRequest},
		{"unknown workload", `{"workloads":["nope"]}`, "workloads[0]", http.StatusBadRequest},
		{"bad version cell", `{"workloads":["mcf"],"base":{"preset":"dla"},"axes":{"version":[9]}}`, "version 9", http.StatusBadRequest},
		{"over budget", `{"workloads":["mcf"],"budget":1000000}`, "exceeds server cap", http.StatusBadRequest},
		{"bad fidelity", `{"workloads":["mcf"],"fidelity":"exact"}`, "fidelity", http.StatusBadRequest},
	} {
		resp := postSweep(t, srv.URL, tc.body)
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error %q misses %q", tc.name, e.Error, tc.want)
		}
	}
}

// TestSweepEndpointAdmission asserts sweeps consume the same admission
// slots as runs: a server with zero free capacity answers 503.
func TestSweepEndpointAdmission(t *testing.T) {
	srv, _ := newTestServer(t, lab.WithMaxInflight(1))

	// Occupy the only slot with a long cancelable run, then try to admit
	// a sweep; cancel the run once the 503 is observed so the test (and
	// the server shutdown) doesn't wait out the long simulation.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/runs",
		strings.NewReader(`{"workload":"mcf","config":{"preset":"dla"},"budget":30000000}`))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Wait until the run actually holds the slot, then the sweep gets 503.
	for i := 0; ; i++ {
		var h lab.Health
		resp, err := http.Get(srv.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if h.Active >= 1 {
			break
		}
		if i >= 500 {
			t.Fatal("long run never became active")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp := postSweep(t, srv.URL, `{"workloads":["mcf"],"budget":2000}`)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sweep at capacity: status %d, want 503", resp.StatusCode)
	}
	cancel()
	<-done
}
