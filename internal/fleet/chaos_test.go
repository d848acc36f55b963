package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"r3dla/internal/lab"
	"r3dla/internal/sweep"
)

// TestFleetSweep503Injection: a backend that sheds every /v1/runs
// request with 503 stays in the pool (admission shedding is
// backpressure, not death — the member is alive and keeps answering
// healthz), its cells overflow to the other member, and the sweep
// completes with output byte-identical to local.
func TestFleetSweep503Injection(t *testing.T) {
	want := localSweep(t)

	flakySrv, _ := newBackendServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
				http.Error(w, `{"error":"server at capacity, retry later"}`, http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	okSrv, _ := newBackendServer(t, nil)

	var backends []Backend
	for _, u := range []string{flakySrv.URL, okSrv.URL} {
		r, err := NewRemote(u)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, r)
	}
	pool, err := NewPool(backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	res, err := sweep.Run(context.Background(), pool, multiAxisSpec(), sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(t, res); !bytes.Equal(got, want) {
		t.Fatal("sweep output with 503 injection differs from local run")
	}
	if st := pool.Status(); !st[0].Healthy {
		t.Fatal("a shedding backend was marked down; overload is backpressure, not death")
	}
}

// TestFleetSweepBackendHardKill kills one backend mid-sweep — its
// connections dropped with cells in flight — and asserts those cells are
// retried on the survivors, the aggregate output stays byte-identical to
// a local run, the journal is left consistent, and a resume re-dispatches
// nothing.
func TestFleetSweepBackendHardKill(t *testing.T) {
	want := localSweep(t)
	journal := filepath.Join(t.TempDir(), "sweep.ndjson")

	// The victim traps /v1/runs requests until the kill, so it completes
	// zero cells and dies holding work — the worst-case failure point.
	trapped := make(chan struct{})
	hasTraffic := make(chan struct{})
	var trafficOnce sync.Once
	victim, _ := newBackendServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/runs" {
				trafficOnce.Do(func() { close(hasTraffic) })
				select {
				case <-trapped:
				case <-r.Context().Done():
				}
				return
			}
			next.ServeHTTP(w, r)
		})
	})
	s1, _ := newBackendServer(t, nil)
	s2, _ := newBackendServer(t, nil)

	var backends []Backend
	for _, u := range []string{victim.URL, s1.URL, s2.URL} {
		r, err := NewRemote(u)
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, r)
	}
	pool, err := NewPool(backends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Close() })

	// Kill once the victim holds cells AND the survivors have made
	// progress (a genuine mid-sweep failure); the fallback timer keeps
	// the test live even under pathological scheduling where every cell
	// lands on the victim first.
	progressed := make(chan struct{})
	var progressOnce sync.Once
	go func() {
		<-hasTraffic
		select {
		case <-progressed:
		case <-time.After(20 * time.Second):
		}
		// Hard-kill: release the trap and sever every open connection,
		// so in-flight cells surface as dropped streams at the client.
		close(trapped)
		victim.CloseClientConnections()
	}()

	var mu sync.Mutex
	completed := 0
	res, err := sweep.Run(context.Background(), pool, multiAxisSpec(), sweep.Options{
		Journal: journal,
		Progress: func(sweep.Event) {
			mu.Lock()
			completed++
			if completed == 2 {
				progressOnce.Do(func() { close(progressed) })
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := renderSweep(t, res); !bytes.Equal(got, want) {
		t.Fatal("sweep output after a mid-sweep backend kill differs from local run")
	}
	if st := pool.Status(); st[0].Healthy {
		t.Fatal("the killed backend was not marked down")
	}

	// The journal the failover left behind is complete and consistent: a
	// resume through a fresh pool restores every cell without a single
	// backend call, and renders the same bytes.
	freshBackends := make([]Backend, 0, 2)
	for _, u := range []string{s1.URL, s2.URL} {
		r, err := NewRemote(u)
		if err != nil {
			t.Fatal(err)
		}
		freshBackends = append(freshBackends, r)
	}
	fresh, err := NewPool(freshBackends)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	resumed, err := sweep.Run(context.Background(), fresh, multiAxisSpec(),
		sweep.Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(res.Cells) {
		t.Fatalf("resume restored %d cells, want %d", resumed.Resumed, len(res.Cells))
	}
	if fresh.BackendCalls() != 0 {
		t.Fatalf("resume issued %d backend calls, want 0", fresh.BackendCalls())
	}
	if got := renderSweep(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed sweep output differs from local run")
	}
}

// gateRunner forwards its first two Run calls to r and holds every later
// call until that call's context ends, then returns ctx.Err(). A test
// that cancels after two completed cells then always cancels while cells
// are still in flight, however the scheduler orders them.
type gateRunner struct {
	r     sweep.Runner
	calls atomic.Int32
}

func (g *gateRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	if g.calls.Add(1) <= 2 {
		return g.r.Run(ctx, req)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestFleetSweepClientKillResume kills the *client* mid-sweep (context
// cancellation after two checkpointed cells) and resumes through a fresh
// pool: only the missing cells are dispatched, and the final output is
// byte-identical to an uninterrupted local run.
func TestFleetSweepClientKillResume(t *testing.T) {
	want := localSweep(t)
	journal := filepath.Join(t.TempDir(), "sweep.ndjson")

	servers := make([]*httptest.Server, 2)
	for i := range servers {
		servers[i], _ = newBackendServer(t, nil)
	}
	mkPool := func() *Pool {
		var backends []Backend
		for _, srv := range servers {
			r, err := NewRemote(srv.URL)
			if err != nil {
				t.Fatal(err)
			}
			backends = append(backends, r)
		}
		p, err := NewPool(backends)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	completed := 0
	_, err := sweep.Run(ctx, &gateRunner{r: mkPool()}, multiAxisSpec(), sweep.Options{
		Journal: journal,
		Progress: func(sweep.Event) {
			mu.Lock()
			completed++
			if completed == 2 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error: %v", err)
	}

	cells, cerr := multiAxisSpec().Expand()
	if cerr != nil {
		t.Fatal(cerr)
	}
	fresh := mkPool()
	resumed, err := sweep.Run(context.Background(), fresh, multiAxisSpec(),
		sweep.Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < 2 || resumed.Resumed >= len(cells) {
		t.Fatalf("resume restored %d of %d cells", resumed.Resumed, len(cells))
	}
	if got, wantCalls := fresh.BackendCalls(), int64(len(cells)-resumed.Resumed); got != wantCalls {
		t.Fatalf("resume issued %d backend calls, want %d (journaled cells re-dispatched)", got, wantCalls)
	}
	if got := renderSweep(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("resumed distributed sweep output differs from uninterrupted local run")
	}
}
