package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// testBudget keeps integration simulations CI-sized; every server and the
// local reference Lab share it so outputs are comparable byte-for-byte.
const testBudget = 2000

// newBackendServer boots one full r3dlad-shaped service (lab server plus
// the sweep extension route, exactly as cmd/r3dlad wires it), optionally
// wrapped in mw, and returns the httptest server plus its shared Lab.
func newBackendServer(t *testing.T, mw func(http.Handler) http.Handler) (*httptest.Server, *lab.Lab) {
	t.Helper()
	l, err := lab.New(lab.WithBudget(testBudget), lab.WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	h := lab.NewServer(l)
	h.Handle("POST /v1/sweeps", sweep.NewHandler(l, h))
	var handler http.Handler = h
	if mw != nil {
		handler = mw(h)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv, l
}

// newFleet boots n backend servers and a pool routing across them.
func newFleet(t *testing.T, n int, opts ...PoolOption) (*Pool, []*httptest.Server) {
	t.Helper()
	var backends []Backend
	var servers []*httptest.Server
	for i := 0; i < n; i++ {
		srv, _ := newBackendServer(t, nil)
		servers = append(servers, srv)
		r, err := NewRemote(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, r)
	}
	p, err := NewPool(backends, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, servers
}

// multiAxisSpec is the integration grid: two workloads x two presets x
// two BOQ depths = 8 cells, the same shape the sweep engine tests pin.
func multiAxisSpec() sweep.Spec {
	return sweep.Spec{
		Workloads: []string{"mcf", "libq"},
		Budget:    testBudget,
		Axes: sweep.Axes{
			Preset:  []string{"dla", "r3"},
			BOQSize: []int{64, 512},
		},
	}
}

// renderSweep renders a sweep result every way the CLI surfaces it.
func renderSweep(t *testing.T, r *sweep.Result) []byte {
	t.Helper()
	rep := r.Report()
	var b bytes.Buffer
	b.WriteString(rep.String())
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// localSweep is the single-process reference output.
func localSweep(t *testing.T) []byte {
	t.Helper()
	l, err := lab.New(lab.WithBudget(testBudget), lab.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), l, multiAxisSpec(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return renderSweep(t, res)
}

// TestFleetSweepByteIdentical is the determinism contract end to end: a
// multi-axis sweep routed across three live backends produces output
// byte-identical to the same sweep run fully in-process, for a serial
// fleet (jobs=1) and a wide one alike (run under -race in CI).
func TestFleetSweepByteIdentical(t *testing.T) {
	want := localSweep(t)
	for _, jobs := range []int{1, 8} {
		pool, _ := newFleet(t, 3, WithJobs(jobs))
		res, err := sweep.Run(context.Background(), pool, multiAxisSpec(), sweep.Options{})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		got := renderSweep(t, res)
		if !bytes.Equal(got, want) {
			t.Fatalf("jobs=%d: distributed sweep output differs from local:\n--- fleet ---\n%s\n--- local ---\n%s", jobs, got, want)
		}
		if calls := pool.BackendCalls(); calls != 8 {
			t.Errorf("jobs=%d: fleet issued %d backend calls, want 8 (one per cell)", jobs, calls)
		}
	}
}

// renderExperiments renders ordered experiment results the way the CLI
// writes stdout plus the JSON/CSV file bodies.
func renderExperiments(t *testing.T, results []lab.ExperimentResult) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Report.String())
		b.WriteByte('\n')
		if err := r.Report.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := r.Report.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestFleetExperimentsByteIdentical distributes `-exp all` across three
// backends and asserts the assembled output (text, JSON and CSV for every
// artifact, in id order) is byte-identical to the local engine's.
func TestFleetExperimentsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry across a fleet; skipped in -short")
	}
	ids := make([]string, 0, len(lab.ListExperiments()))
	for _, e := range lab.ListExperiments() {
		ids = append(ids, e.ID)
	}

	l, err := lab.New(lab.WithBudget(testBudget))
	if err != nil {
		t.Fatal(err)
	}
	localResults, err := l.Experiments(context.Background(), ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderExperiments(t, localResults)

	pool, _ := newFleet(t, 3)
	var streamed []string
	fleetResults, err := pool.Experiments(context.Background(), ids, func(r lab.ExperimentResult) {
		streamed = append(streamed, r.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	got := renderExperiments(t, fleetResults)
	if !bytes.Equal(got, want) {
		t.Fatal("distributed -exp all output differs from local run")
	}
	for i, id := range ids {
		if streamed[i] != id {
			t.Fatalf("ordered delivery broken: %v", streamed)
		}
	}
}

// TestRemoteWholeSweep drives the coarse-grained path: one backend owns
// the whole grid through POST /v1/sweeps, spoken over the Remote's own
// client and stream reader, and the streamed aggregate report matches the
// local engine's rendering byte for byte.
func TestRemoteWholeSweep(t *testing.T) {
	srv, _ := newBackendServer(t, nil)
	r, err := NewRemote(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	resp, err := r.postJSON(ctx, "/v1/sweeps", multiAxisSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatal(r.statusErr(resp, lab.ErrUnknownWorkload))
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		var line sweep.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Event == "cell" {
			cells++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if cells != 8 {
		t.Fatalf("streamed %d cell lines, want 8", cells)
	}
	var rep lab.Report
	if err := r.readStream(ctx, bytes.NewReader(body), &rep); err != nil {
		t.Fatal(err)
	}

	l, err := lab.New(lab.WithBudget(testBudget), lab.WithJobs(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(ctx, l, multiAxisSpec(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := res.Report().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("whole-sweep report differs from local rendering")
	}
}

// TestFleetBudgetVerification: the healthz body advertises the server's
// default budget, which the CLI compares before distributing experiments.
func TestFleetBudgetVerification(t *testing.T) {
	srv, _ := newBackendServer(t, nil)
	r, err := NewRemote(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Budget != testBudget {
		t.Fatalf("advertised budget %d, want %d", h.Budget, testBudget)
	}
}
