package lab

// Tests for the multi-tenant result fabric: cross-client coalescing,
// the persistent result store, priority-class admission, idempotent
// outcome accounting, and the Prometheus metrics rendering.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"r3dla/internal/resultstore"
)

// waitStats polls /v1/stats until cond holds (or the deadline).
func waitStats(t *testing.T, url string, cond func(Stats) bool) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st Stats
	for time.Now().Before(deadline) {
		getJSON(t, url+"/v1/stats", &st)
		if cond(st) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("stats condition never held; last: %+v", st)
	return st
}

// postRun POSTs one run body and returns (status, response bytes).
func postRun(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestServerRunCoalescing is the fabric's headline contract: N
// concurrent identical /v1/runs perform exactly one simulation, all
// waiters share its answer, and every response is byte-identical.
func TestServerRunCoalescing(t *testing.T) {
	srv, l := newTestService(t)
	// A budget big enough (hundreds of ms of simulation; seconds under
	// -race) that the first request is still in flight when the rest
	// arrive, small enough that waiting for completion stays fast.
	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":300000}`
	const n = 4
	bodies := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	post := func(i int) {
		defer wg.Done()
		resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			errs[i] = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		bodies[i], errs[i] = io.ReadAll(resp.Body)
	}
	wg.Add(1)
	go post(0)
	waitStats(t, srv.URL, func(st Stats) bool { return st.Inflight >= 1 })
	for i := 1; i < n; i++ {
		wg.Add(1)
		go post(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}
	if c := l.RunCount(); c != 1 {
		t.Fatalf("%d concurrent identical runs executed %d simulations, want 1", n, c)
	}
	var st Stats
	getJSON(t, srv.URL+"/v1/stats", &st)
	if st.Coalesced == 0 {
		t.Fatal("no request was coalesced into the shared flight")
	}
	if st.Completed != n {
		t.Fatalf("completed %d, want %d", st.Completed, n)
	}
}

// TestServerCoalescingSurvivesCancel pins the cancellation contract
// (run under -race in CI): the first client cancels mid-simulation, and
// a second waiter on the same key still receives the full result — one
// waiter's cancellation must not leak into the shared computation.
func TestServerCoalescingSurvivesCancel(t *testing.T) {
	srv, l := newTestService(t)
	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":300000}`

	// Client A: cancelable, becomes the flight leader.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqA, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/runs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	doneA := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqA)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request completed with status %d", resp.StatusCode)
		}
		doneA <- err
	}()
	waitStats(t, srv.URL, func(st Stats) bool { return st.Inflight >= 1 })

	// Client B: joins A's flight.
	doneB := make(chan struct{})
	var statusB int
	var bodyB []byte
	go func() {
		defer close(doneB)
		statusB, bodyB = postRun(t, srv.URL, body)
	}()
	waitStats(t, srv.URL, func(st Stats) bool { return st.Coalesced >= 1 })

	// A goes away mid-simulation; B must still get the whole answer.
	cancel()
	if err := <-doneA; err == nil {
		t.Fatal("canceled request reported success")
	}
	<-doneB
	if statusB != http.StatusOK {
		t.Fatalf("surviving waiter got status %d: %s", statusB, bodyB)
	}
	if !bytes.Contains(bodyB, []byte(`"workload": "mcf"`)) {
		t.Fatalf("surviving waiter got a partial body: %s", bodyB)
	}
	// The cancellation neither killed nor restarted the shared run.
	if c := l.RunCount(); c != 1 {
		t.Fatalf("shared run executed %d times, want 1", c)
	}
	waitStats(t, srv.URL, func(st Stats) bool { return st.Canceled == 1 && st.Completed == 1 })
}

// TestServerCoalescedStreamsSeeProgress: a streaming /v1/runs that joins
// another request's simulation still receives that simulation's progress
// event before its result line, and the two share one simulation.
func TestServerCoalescedStreamsSeeProgress(t *testing.T) {
	srv, l := newTestService(t)
	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":300000}`
	stream := func() ([]StreamLine, error) {
		resp, err := http.Post(srv.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		var lines []StreamLine
		dec := json.NewDecoder(resp.Body)
		for {
			var line StreamLine
			if err := dec.Decode(&line); err == io.EOF {
				return lines, nil
			} else if err != nil {
				return nil, err
			}
			lines = append(lines, line)
		}
	}
	got := make([][]StreamLine, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = stream()
		}()
		if i == 0 {
			waitStats(t, srv.URL, func(st Stats) bool { return st.Inflight >= 1 })
		}
	}
	waitStats(t, srv.URL, func(st Stats) bool { return st.Coalesced >= 1 })
	wg.Wait()
	for i, lines := range got {
		if errs[i] != nil {
			t.Fatalf("stream %d: %v", i, errs[i])
		}
		n := len(lines)
		if n < 2 || lines[n-2].Event != "run" || lines[n-1].Event != "result" {
			t.Fatalf("stream %d: want a run line then the result line, got %+v", i, lines)
		}
	}
	if c := l.RunCount(); c != 1 {
		t.Fatalf("two coalesced streams executed %d simulations, want 1", c)
	}
}

// TestServerResultStoreRestart is the durable-tier contract: a fresh
// server (fresh Lab, fresh process in real life) over a warm store
// answers a repeated request with zero new simulations and a
// byte-identical body. The wide-cores request's run key is longer than
// a file name may be.
func TestServerResultStoreRestart(t *testing.T) {
	dir := t.TempDir()
	bodies := []string{
		`{"workload":"mcf","config":{"preset":"r3"},"budget":3000}`,
		`{"workload":"mcf","config":{"preset":"r3","cores":{"model":"wide"}},"budget":3000}`,
	}

	st1, err := resultstore.Open(dir, ResultsFingerprint, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv1, l1 := newTestService(t, WithResultStore(st1))
	cold := make([][]byte, len(bodies))
	for i, body := range bodies {
		status, res := postRun(t, srv1.URL, body)
		if status != http.StatusOK {
			t.Fatalf("cold run status %d: %s", status, res)
		}
		cold[i] = res
	}
	if c := l1.RunCount(); c != len(bodies) {
		t.Fatalf("cold runs executed %d simulations, want %d", c, len(bodies))
	}
	if s := st1.Stats(); s.Puts != int64(len(bodies)) {
		t.Fatalf("cold runs persisted %d entries, want %d: %+v", s.Puts, len(bodies), s)
	}
	srv1.Close()

	// "Restart": a brand-new Lab and server over the same directory.
	st2, err := resultstore.Open(dir, ResultsFingerprint, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2, l2 := newTestService(t, WithResultStore(st2))
	for i, body := range bodies {
		status, warm := postRun(t, srv2.URL, body)
		if status != http.StatusOK {
			t.Fatalf("warm run status %d: %s", status, warm)
		}
		if !bytes.Equal(cold[i], warm) {
			t.Fatalf("store hit is not byte-identical:\n--- cold ---\n%s\n--- warm ---\n%s", cold[i], warm)
		}
	}
	if c := l2.RunCount(); c != 0 {
		t.Fatalf("restarted server executed %d simulations, want 0 (store hits)", c)
	}
	// A store hit answers before Prepare, so a restarted server prepares
	// a workload only for a cell it has never stored.
	if n := l2.PrepCount("mcf"); n != 0 {
		t.Fatalf("store hits prepared mcf %d times, want 0", n)
	}
	var st Stats
	getJSON(t, srv2.URL+"/v1/stats", &st)
	if st.Store.Hits != int64(len(bodies)) || st.Completed != int64(len(bodies)) {
		t.Fatalf("warm stats %+v, want %d store hits and completed", st, len(bodies))
	}
	// A budget the store has never seen misses, prepares and simulates.
	if status, _ := postRun(t, srv2.URL, `{"workload":"mcf","config":{"preset":"r3"},"budget":2000}`); status != http.StatusOK {
		t.Fatal("distinct-budget request failed")
	}
	if c := l2.RunCount(); c != 1 {
		t.Fatalf("distinct budget should simulate once, got %d", c)
	}
	if n := l2.PrepCount("mcf"); n != 1 {
		t.Fatalf("distinct budget prepared mcf %d times, want 1", n)
	}
}

// TestServerPriorityAdmission walks the fair-share policy at capacity 4
// (reserve 1): batch may fill 3 slots, the 4th batch request sheds while
// an interactive one still fits, and a full house sheds everything.
func TestServerPriorityAdmission(t *testing.T) {
	l, err := New(WithBudget(2_000), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(l, WithMaxInflight(4))

	admit := func(class string) (func(), int) {
		r := httptest.NewRequest(http.MethodPost, "/v1/runs", nil)
		if class != "" {
			r.Header.Set(PriorityHeader, class)
		}
		w := httptest.NewRecorder()
		release, ok := s.admitRequest(w, r)
		if !ok {
			return nil, w.Code
		}
		return release, http.StatusOK
	}

	var releases []func()
	for i := 0; i < 3; i++ {
		release, code := admit(PriorityBatch)
		if code != http.StatusOK {
			t.Fatalf("batch admission %d shed with %d", i, code)
		}
		releases = append(releases, release)
	}
	// Batch is now at capacity-reserve: the next batch request sheds...
	if _, code := admit(PriorityBatch); code != http.StatusServiceUnavailable {
		t.Fatalf("4th batch request got %d, want 503", code)
	}
	// ...but the interactive reserve still admits.
	releaseI, code := admit("")
	if code != http.StatusOK {
		t.Fatalf("interactive request shed with %d despite reserve", code)
	}
	// Full house: everything sheds now.
	if _, code := admit(""); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity interactive got %d, want 503", code)
	}
	if _, code := admit(PriorityBatch); code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity batch got %d, want 503", code)
	}

	st := s.statsSnapshot()
	want := Stats{
		Inflight: 4, Capacity: 4, Budget: 2_000,
		Interactive: ClassStats{Inflight: 1, Admitted: 1, Shed: 1},
		Batch:       ClassStats{Inflight: 3, Admitted: 3, Shed: 2},
	}
	if st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	// Releasing a batch slot reopens batch admission.
	releases[0]()
	release, code := admit(PriorityBatch)
	if code != http.StatusOK {
		t.Fatalf("batch after release got %d", code)
	}
	release()
	releaseI()
	for _, r := range releases[1:] {
		r()
	}
	if st := s.statsSnapshot(); st.Inflight != 0 || st.Interactive.Inflight != 0 || st.Batch.Inflight != 0 {
		t.Fatalf("inflight did not drain: %+v", st)
	}
}

// TestServerObserveIdempotent pins the outcome-accounting fix: however
// many layers classify one request (extension Observe plus the server's
// own finish paths), each request moves completed/canceled by at most
// one — table-driven against /v1/stats.
func TestServerObserveIdempotent(t *testing.T) {
	canceledErr := context.Canceled
	for _, tc := range []struct {
		name          string
		handle        func(s *Server, w http.ResponseWriter, r *http.Request)
		wantCompleted int64
		wantCanceled  int64
	}{
		{
			name: "double cancel observation",
			handle: func(s *Server, w http.ResponseWriter, r *http.Request) {
				s.Observe(r.Context(), canceledErr)
				s.Observe(r.Context(), canceledErr)
			},
			wantCanceled: 1,
		},
		{
			name: "extension observe then server finish",
			handle: func(s *Server, w http.ResponseWriter, r *http.Request) {
				s.Observe(r.Context(), canceledErr)
				s.finish(w, r, canceledErr)
			},
			wantCanceled: 1,
		},
		{
			name: "double success observation",
			handle: func(s *Server, w http.ResponseWriter, r *http.Request) {
				s.Observe(r.Context(), nil)
				s.Observe(r.Context(), nil)
			},
			wantCompleted: 1,
		},
		{
			name: "first classification wins",
			handle: func(s *Server, w http.ResponseWriter, r *http.Request) {
				s.Observe(r.Context(), nil)
				s.Observe(r.Context(), canceledErr)
			},
			wantCompleted: 1,
		},
		{
			name: "separate requests count separately",
			handle: func(s *Server, w http.ResponseWriter, r *http.Request) {
				s.Observe(r.Context(), canceledErr)
			},
			wantCanceled: 2, // the handler runs twice below
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := New(WithBudget(2_000), WithJobs(2))
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(l)
			s.Handle("POST /v1/ext", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.handle(s, w, r)
			}))
			srv := httptest.NewServer(s)
			defer srv.Close()
			calls := 1
			if tc.name == "separate requests count separately" {
				calls = 2
			}
			for i := 0; i < calls; i++ {
				resp, err := http.Post(srv.URL+"/v1/ext", "application/json", nil)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
			}
			var st Stats
			getJSON(t, srv.URL+"/v1/stats", &st)
			if st.Completed != tc.wantCompleted || st.Canceled != tc.wantCanceled {
				t.Fatalf("completed=%d canceled=%d, want %d/%d",
					st.Completed, st.Canceled, tc.wantCompleted, tc.wantCanceled)
			}
		})
	}
}

// TestServerMetrics scrapes /metrics (and the ?format=prometheus alias)
// and spot-checks the exposition format.
func TestServerMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir, ResultsFingerprint, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestService(t, WithMaxInflight(8), WithResultStore(st))
	if status, _ := postRun(t, srv.URL, `{"workload":"mcf","config":{"preset":"dla"},"budget":2000}`); status != http.StatusOK {
		t.Fatalf("seed run status %d", status)
	}

	for _, path := range []string{"/metrics", "/v1/stats?format=prometheus"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("%s: content-type %q", path, ct)
		}
		for _, want := range []string{
			"# TYPE r3dlad_inflight gauge",
			"r3dlad_admission_capacity 8",
			"r3dlad_requests_completed_total 1",
			"r3dlad_simulations_total 1",
			`r3dlad_class_admitted_total{class="interactive"} 1`,
			`r3dlad_class_admitted_total{class="batch"} 0`,
			"r3dlad_store_misses_total 1",
			"r3dlad_store_puts_total 1",
			"r3dlad_store_entries 1",
		} {
			if !strings.Contains(string(body), want) {
				t.Errorf("%s: missing %q in:\n%s", path, want, body)
			}
		}
	}
}

// TestServerStoreHitStream: a ?stream=1 request served from the store
// answers with just the terminal result line.
func TestServerStoreHitStream(t *testing.T) {
	dir := t.TempDir()
	st, err := resultstore.Open(dir, ResultsFingerprint, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestService(t, WithResultStore(st))
	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":2000}`
	if status, _ := postRun(t, srv.URL, body); status != http.StatusOK {
		t.Fatal("cold run failed")
	}
	resp, err := http.Post(srv.URL+"/v1/runs?stream=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"event":"result"`) {
		t.Fatalf("store-hit stream should be one result line, got %d lines:\n%s", len(lines), raw)
	}
}
