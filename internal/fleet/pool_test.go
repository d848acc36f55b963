package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"r3dla/internal/lab"
)

// fakeBackend is a scriptable in-process Backend for router tests: no
// HTTP, no simulation — just the behaviors the pool routes around.
type fakeBackend struct {
	name  string
	calls atomic.Int64
	run   func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error)
	exp   func(ctx context.Context, id string) (*lab.Report, error)
}

func (f *fakeBackend) Name() string { return f.name }
func (f *fakeBackend) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	f.calls.Add(1)
	return f.run(ctx, req)
}
func (f *fakeBackend) Experiment(ctx context.Context, id string) (*lab.Report, error) {
	f.calls.Add(1)
	if f.exp == nil {
		return &lab.Report{ID: id}, nil
	}
	return f.exp(ctx, id)
}
func (f *fakeBackend) Close() error { return nil }

// okRun returns a canned deterministic result.
func okRun(name string) func(context.Context, lab.RunRequest) (*lab.RunResult, error) {
	return func(_ context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		return &lab.RunResult{Workload: req.Workload, Config: name, Budget: req.Budget, IPC: 1}, nil
	}
}

// testReq builds a valid request; distinct budgets make distinct cache keys.
func testReq(budget uint64) lab.RunRequest {
	return lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "dla"}, Budget: budget}
}

// runKeyFor derives the canonical routing key for a request, the same way
// the pool does before picking a member.
func runKeyFor(t *testing.T, req lab.RunRequest) string {
	t.Helper()
	cfg, err := req.Config.Config()
	if err != nil {
		t.Fatal(err)
	}
	return lab.RunKey(req.Workload, cfg, req.Budget)
}

// ownerIndex returns which of names wins the rendezvous hash for key —
// on an idle fleet that member serves the request, so tests that inject
// faults must inject them into the owner, not a fixed slot.
func ownerIndex(key string, names []string) int {
	best, bestScore := -1, uint64(0)
	for i, n := range names {
		if s := rendezvousScore(key, n); best < 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

func newTestPool(t *testing.T, backends []Backend, opts ...PoolOption) *Pool {
	t.Helper()
	p, err := NewPool(backends, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPoolLeastLoaded pins the routing rule: with one member busy, the
// next request goes to the idle one — even when the busy member is the
// second key's cache-affinity owner.
func TestPoolLeastLoaded(t *testing.T) {
	names := []string{"b0", "b1"}
	busy := ownerIndex(runKeyFor(t, testReq(100)), names)
	idle := 1 - busy

	release := make(chan struct{})
	backends := make([]Backend, 2)
	for i, n := range names {
		run := okRun(n)
		if i == busy {
			inner := run
			run = func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				return inner(ctx, req)
			}
		}
		backends[i] = &fakeBackend{name: n, run: run}
	}
	p := newTestPool(t, backends)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := p.Run(context.Background(), testReq(100)); err != nil {
			t.Errorf("blocked run: %v", err)
		}
	}()
	// Wait until the first request occupies its owner, then dispatch another.
	for i := 0; ; i++ {
		if p.Status()[busy].Inflight == 1 {
			break
		}
		if i > 500 {
			t.Fatalf("first request never reached its owner %s", names[busy])
		}
		time.Sleep(2 * time.Millisecond)
	}
	res, err := p.Run(context.Background(), testReq(200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != names[idle] {
		t.Fatalf("second request served by %s, want the idle %s", res.Config, names[idle])
	}
	close(release)
	wg.Wait()
}

// TestPoolRetryExcludesFailedBackend: a member that hard-faults is
// excluded from the retry, which lands on the other member; the faulty
// member is marked down for the prober to revive.
func TestPoolRetryExcludesFailedBackend(t *testing.T) {
	names := []string{"b0", "b1"}
	faulty := ownerIndex(runKeyFor(t, testReq(100)), names)
	other := 1 - faulty

	backends := make([]*fakeBackend, 2)
	for i, n := range names {
		backends[i] = &fakeBackend{name: n, run: okRun(n)}
	}
	backends[faulty].run = func(context.Context, lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: injected connection drop", ErrUnavailable)
	}
	p := newTestPool(t, []Backend{backends[0], backends[1]})

	res, err := p.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != names[other] {
		t.Fatalf("served by %s, want the retry on %s", res.Config, names[other])
	}
	if got := backends[faulty].calls.Load(); got != 1 {
		t.Fatalf("%s called %d times, want 1", names[faulty], got)
	}
	if st := p.Status(); st[faulty].Healthy || !st[other].Healthy {
		t.Fatalf("health after fault: %+v", st)
	}
	// With the faulty member down, fresh requests route to the survivor.
	if _, err := p.Run(context.Background(), testReq(200)); err != nil {
		t.Fatal(err)
	}
	if got := backends[faulty].calls.Load(); got != 1 {
		t.Fatalf("down member still receiving traffic (%d calls)", got)
	}
}

// TestPoolBoundedAttempts: when every member faults, the request fails
// after at most WithRetries attempts, wrapping the last backend error.
func TestPoolBoundedAttempts(t *testing.T) {
	fail := func(context.Context, lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: down", ErrUnavailable)
	}
	b := []Backend{
		&fakeBackend{name: "b0", run: fail},
		&fakeBackend{name: "b1", run: fail},
		&fakeBackend{name: "b2", run: fail},
	}
	p := newTestPool(t, b, WithRetries(2))
	_, err := p.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
	if got := p.BackendCalls(); got != 2 {
		t.Fatalf("issued %d backend calls, want 2 (bounded attempts)", got)
	}
}

// TestPoolNonRetryableFailsFast: validation-class errors surface
// immediately instead of burning attempts on other members.
func TestPoolNonRetryableFailsFast(t *testing.T) {
	names := []string{"b0", "b1"}
	owner := ownerIndex(runKeyFor(t, testReq(100)), names)

	backends := make([]*fakeBackend, 2)
	for i, n := range names {
		backends[i] = &fakeBackend{name: n, run: okRun(n)}
	}
	backends[owner].run = func(context.Context, lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: %q", lab.ErrUnknownWorkload, "mcf")
	}
	p := newTestPool(t, []Backend{backends[0], backends[1]})
	_, err := p.Run(context.Background(), testReq(100))
	if !errors.Is(err, lab.ErrUnknownWorkload) {
		t.Fatalf("want ErrUnknownWorkload, got %v", err)
	}
	if got := p.BackendCalls(); got != 1 {
		t.Fatalf("issued %d backend calls, want 1 (no retry on validation errors)", got)
	}
	if !p.Status()[owner].Healthy {
		t.Fatal("validation error must not mark the member down")
	}
	// A locally invalid config never reaches a backend at all.
	bad := lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "nope"}}
	if _, err := p.Run(context.Background(), bad); !errors.Is(err, lab.ErrInvalid) {
		t.Fatalf("invalid config: %v", err)
	}
	if got := p.BackendCalls(); got != 1 {
		t.Fatalf("invalid config was dispatched (%d calls)", got)
	}
}

// TestPoolOverloadBackpressure: admission-control shedding (503) is
// backpressure, not death — the pool prefers another member, or waits
// for capacity, and the shedding member is never marked down.
func TestPoolOverloadBackpressure(t *testing.T) {
	// A single member that sheds twice before admitting: the request must
	// wait it out and succeed, with the member healthy throughout.
	var rejections atomic.Int64
	solo := &fakeBackend{name: "solo", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		if rejections.Add(1) <= 2 {
			return nil, fmt.Errorf("%w: at capacity", ErrOverloaded)
		}
		return okRun("solo")(ctx, req)
	}}
	p := newTestPool(t, []Backend{solo})
	res, err := p.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "solo" || solo.calls.Load() != 3 {
		t.Fatalf("overloaded member result %+v after %d calls, want success on call 3", res, solo.calls.Load())
	}
	if !p.Status()[0].Healthy {
		t.Fatal("shedding marked the member down; overload is not death")
	}

	// With an idle sibling available, shed work overflows immediately
	// instead of waiting.
	busy := &fakeBackend{name: "busy", run: func(context.Context, lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: at capacity", ErrOverloaded)
	}}
	idle := &fakeBackend{name: "idle", run: okRun("idle")}
	p2 := newTestPool(t, []Backend{busy, idle})
	res, err = p2.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != "idle" {
		t.Fatalf("shed request served by %s, want the overflow to idle", res.Config)
	}
	if !p2.Status()[0].Healthy {
		t.Fatal("persistently shedding member was marked down")
	}

	// Everyone persistently shedding: the overload surfaces after the
	// bounded waits rather than hanging.
	p3 := newTestPool(t, []Backend{
		&fakeBackend{name: "f0", run: busy.run},
		&fakeBackend{name: "f1", run: busy.run},
	})
	if _, err := p3.Run(context.Background(), testReq(100)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fully overloaded pool: %v, want ErrOverloaded", err)
	}
}

// TestPoolHedging: a straggling first attempt is duplicated onto the
// second member after the hedge delay, and the fast copy's (identical)
// result wins without waiting for the straggler.
func TestPoolHedging(t *testing.T) {
	names := []string{"b0", "b1"}
	slow := ownerIndex(runKeyFor(t, testReq(100)), names)
	fast := 1 - slow

	backends := make([]*fakeBackend, 2)
	for i, n := range names {
		backends[i] = &fakeBackend{name: n, run: okRun(n)}
	}
	backends[slow].run = func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		<-ctx.Done() // straggles until the winner cancels it
		return nil, ctx.Err()
	}
	p := newTestPool(t, []Backend{backends[0], backends[1]}, WithHedgeAfter(5*time.Millisecond))

	done := make(chan struct{})
	var res *lab.RunResult
	var err error
	go func() {
		defer close(done)
		res, err = p.Run(context.Background(), testReq(100))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("hedged request never completed")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Config != names[fast] {
		t.Fatalf("served by %s, want the hedge on %s", res.Config, names[fast])
	}
	if got := p.BackendCalls(); got != 2 {
		t.Fatalf("issued %d backend calls, want 2 (primary + hedge)", got)
	}
}

// TestPoolExperimentsOrdered: distributed experiments are delivered in id
// order no matter which backend answers first.
func TestPoolExperimentsOrdered(t *testing.T) {
	slowFirst := func(ctx context.Context, id string) (*lab.Report, error) {
		if id == "tab1" {
			time.Sleep(20 * time.Millisecond) // the first id answers last
		}
		return &lab.Report{ID: id, Title: id}, nil
	}
	p := newTestPool(t, []Backend{
		&fakeBackend{name: "b0", exp: slowFirst, run: okRun("b0")},
		&fakeBackend{name: "b1", exp: slowFirst, run: okRun("b1")},
	})
	ids := []string{"tab1", "fig9a", "fig15"}
	var order []string
	results, err := p.Experiments(context.Background(), ids, func(r lab.ExperimentResult) {
		order = append(order, r.ID)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if order[i] != id || results[i].ID != id || results[i].Report.ID != id {
			t.Fatalf("delivery order %v / results %+v, want %v", order, results, ids)
		}
	}
	if _, err := p.Experiments(context.Background(), []string{"nope"}, nil); !errors.Is(err, lab.ErrUnknownExperiment) {
		t.Fatalf("unknown id: %v", err)
	}
}

// statsBackend is a fakeBackend that also reports server load the way a
// real r3dlad /v1/stats endpoint does (it implements loadReporter, so
// the prober folds its answers into routing).
type statsBackend struct {
	fakeBackend
	stats func(ctx context.Context) (lab.Stats, error)
}

func (s *statsBackend) Stats(ctx context.Context) (lab.Stats, error) { return s.stats(ctx) }

// TestPoolStaleLoadReset pins the stale-signal fix: a member whose stats
// endpoint dies must not keep biasing least-loaded dispatch with its
// last reported load — the signal resets and traffic rebalances back.
func TestPoolStaleLoadReset(t *testing.T) {
	var b0statsDown atomic.Bool
	b0 := &statsBackend{
		fakeBackend: fakeBackend{name: "b0", run: okRun("b0"), exp: func(_ context.Context, id string) (*lab.Report, error) {
			return &lab.Report{ID: id, Title: "b0"}, nil
		}},
		stats: func(context.Context) (lab.Stats, error) {
			if b0statsDown.Load() {
				return lab.Stats{}, fmt.Errorf("%w: stats endpoint gone", ErrUnavailable)
			}
			return lab.Stats{Inflight: 5}, nil
		},
	}
	b1 := &statsBackend{
		fakeBackend: fakeBackend{name: "b1", run: okRun("b1"), exp: func(_ context.Context, id string) (*lab.Report, error) {
			return &lab.Report{ID: id, Title: "b1"}, nil
		}},
		stats: func(context.Context) (lab.Stats, error) {
			return lab.Stats{Inflight: 3}, nil
		},
	}
	// A long probe cadence so only our explicit probeAll calls move the
	// load signals.
	p := newTestPool(t, []Backend{b0, b1}, WithProbeEvery(time.Hour))

	// While b0 honestly reports heavier load, dispatch prefers b1.
	p.probeAll()
	rep, err := p.Experiment(context.Background(), "tab1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Title != "b1" {
		t.Fatalf("with b0 at load 5 and b1 at 3, dispatch chose %s, want b1", rep.Title)
	}

	// b0's stats endpoint dies (the member itself still serves). Its last
	// value (5) is dead data now: after the next probe round the pool
	// must forget it and rebalance onto b0 (probed load 0 beats b1's 3).
	b0statsDown.Store(true)
	p.probeAll()
	if load := p.members[0].load.Load(); load != 0 {
		t.Fatalf("b0 load %d after failed probe, want 0 (stale signal kept)", load)
	}
	rep, err = p.Experiment(context.Background(), "tab1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Title != "b0" {
		t.Fatalf("after b0's stats died, dispatch chose %s, want the rebalance to b0", rep.Title)
	}

	// A hard fault also clears the signal: a recovered member starts
	// clean, and the prober leaves it at zero while its breaker is open.
	b0statsDown.Store(false)
	p.probeAll()
	if load := p.members[0].load.Load(); load != 5 {
		t.Fatalf("b0 load %d after healthy probe, want 5", load)
	}
	runMember(context.Background(), p, p.members[0], func(context.Context, *member) (struct{}, error) {
		return struct{}{}, fmt.Errorf("%w: fault", ErrUnavailable)
	})
	if load := p.members[0].load.Load(); load != 0 {
		t.Fatalf("b0 load %d after a hard fault, want 0", load)
	}
	p.probeAll()
	if load := p.members[0].load.Load(); load != 0 {
		t.Fatalf("b0 load %d probed while its breaker is open, want 0", load)
	}
}

// TestPoolKeepsNoResults pins the pool's memory bound: it keeps routing
// state only, so 10^5 distinct cells leave its live heap where it was.
// Keeping cells is the serving backends' job (their run memos and result
// stores).
func TestPoolKeepsNoResults(t *testing.T) {
	p := newTestPool(t, []Backend{&fakeBackend{name: "b0", run: okRun("b0")}})
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	const cells = 100_000
	before := liveHeap()
	for i := range cells {
		if _, err := p.Run(context.Background(), testReq(uint64(1+i))); err != nil {
			t.Fatal(err)
		}
	}
	if growth := liveHeap() - before; growth >= 1<<20 {
		t.Fatalf("%d distinct cells grew the live heap by %d bytes (%d B/cell); the pool must keep no results",
			cells, growth, growth/cells)
	}
	runtime.KeepAlive(p)
}

// TestPoolCacheAffinity pins the rendezvous routing contract: with an
// idle fleet, every pool (every client) sends one key to the same
// member — fleet result stores become a coherent caching tier — and the
// hash actually spreads distinct keys. A busy owner overflows to the
// least-loaded member instead of queueing behind itself.
func TestPoolCacheAffinity(t *testing.T) {
	names := []string{"b0", "b1", "b2"}
	build := func() []Backend {
		var bs []Backend
		for _, n := range names {
			bs = append(bs, &fakeBackend{name: n, run: okRun(n)})
		}
		return bs
	}
	p1 := newTestPool(t, build())
	p2 := newTestPool(t, build())

	owners := make(map[string]bool)
	for i := 0; i < 16; i++ {
		req := testReq(uint64(1000 + i))
		cfg, err := req.Config.Config()
		if err != nil {
			t.Fatal(err)
		}
		key := lab.RunKey(req.Workload, cfg, req.Budget)
		// The owner is the rendezvous winner, deterministically.
		wantOwner, wantScore := "", uint64(0)
		for _, n := range names {
			if s := rendezvousScore(key, n); wantOwner == "" || s > wantScore {
				wantOwner, wantScore = n, s
			}
		}
		m1, m2 := p1.pickKeyed(key, nil), p2.pickKeyed(key, nil)
		if m1.b.Name() != wantOwner || m2.b.Name() != wantOwner {
			t.Fatalf("key %s routed to %s/%s, want the rendezvous owner %s",
				key, m1.b.Name(), m2.b.Name(), wantOwner)
		}
		// End to end: the dispatch itself lands on the owner.
		res, err := p1.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Config != wantOwner {
			t.Fatalf("key %s served by %s, want owner %s", key, res.Config, wantOwner)
		}
		owners[wantOwner] = true
	}
	if len(owners) != len(names) {
		t.Fatalf("16 keys landed on only %d of %d members; rendezvous hash is degenerate", len(owners), len(names))
	}

	// A busy owner is bypassed: affinity must not queue work behind a
	// member that is measurably busier than an idle sibling.
	req := testReq(77)
	cfg, _ := req.Config.Config()
	key := lab.RunKey(req.Workload, cfg, req.Budget)
	owner := p1.pickKeyed(key, nil)
	owner.inflight.Add(3)
	if got := p1.pickKeyed(key, nil); got == owner {
		t.Fatal("busy owner still preferred over idle members")
	} else if got.inflight.Load() != 0 {
		t.Fatalf("overflow went to a busy member (inflight %d)", got.inflight.Load())
	}
	owner.inflight.Add(-3)
}
