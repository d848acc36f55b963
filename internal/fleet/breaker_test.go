package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"r3dla/internal/lab"
)

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(100 * time.Millisecond)
	now := time.Now()

	if b.blocked(now, 0) {
		t.Fatal("fresh breaker blocked")
	}
	b.failure(now) // one hard fault opens it
	if !b.blocked(now, 0) {
		t.Fatal("breaker did not open on a hard fault")
	}
	if got := b.current(); got != brkOpen {
		t.Fatalf("state %v, want open", got)
	}
	// Still inside the cooldown.
	if !b.blocked(now.Add(50*time.Millisecond), 0) {
		t.Fatal("open breaker admitted a request mid-cooldown")
	}
	// Cooldown expired: half-open admits an idle-member trial...
	later := now.Add(150 * time.Millisecond)
	if b.blocked(later, 0) {
		t.Fatal("expired breaker refused the half-open trial")
	}
	if got := b.current(); got != brkHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
	// ...but not while the member is busy with the trial.
	if !b.blocked(later, 1) {
		t.Fatal("half-open admitted a second concurrent request")
	}
	// Trial failure reopens with the cooldown doubled.
	b.failure(later)
	if !b.blocked(later.Add(150*time.Millisecond), 0) {
		t.Fatal("reopened breaker should hold for the doubled cooldown")
	}
	if b.blocked(later.Add(250*time.Millisecond), 0) {
		t.Fatal("doubled cooldown never expired")
	}
	// Trial success closes the breaker...
	b.success()
	if b.blocked(time.Now(), 5) || b.current() != brkClosed {
		t.Fatal("success did not close the breaker")
	}
	// ...and resets the cooldown: the next fault opens it for the first
	// cooldown again, not the doubled one.
	b.failure(now)
	if !b.blocked(now.Add(50*time.Millisecond), 0) {
		t.Fatal("closed breaker did not reopen on a fault after the reset")
	}
	if b.blocked(now.Add(150*time.Millisecond), 0) {
		t.Fatal("success did not reset the cooldown to the first one")
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	b := newBreaker(100 * time.Millisecond)
	now := time.Now()
	b.failure(now) // open at base
	for i := 0; i < 10; i++ {
		now = now.Add(24 * time.Hour) // expire whatever the cooldown is
		if b.blocked(now, 0) {
			t.Fatalf("round %d: cooldown never expired", i)
		}
		b.failure(now) // half-open trial fails, cooldown doubles
	}
	// Cap is 8x base: the breaker holds up to 800ms and is probe-able
	// after.
	if !b.blocked(now.Add(799*time.Millisecond), 0) {
		t.Fatal("cooldown capped below 8x")
	}
	if b.blocked(now.Add(801*time.Millisecond), 0) {
		t.Fatal("cooldown exceeded its 8x cap")
	}
}

// TestPoolBreakerOpensAndRoutesAround: one hard fault opens the failing
// member's breaker, and traffic continues on the survivor without
// reaching the broken member while the cooldown lasts.
func TestPoolBreakerOpensAndRoutesAround(t *testing.T) {
	var sickCalls atomic.Int64
	sick := &fakeBackend{name: "sick", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		sickCalls.Add(1)
		return nil, fmt.Errorf("%w: runs broken", ErrBackend)
	}}
	well := &fakeBackend{name: "well", run: okRun("well")}

	p := newTestPool(t, []Backend{sick, well},
		WithRetries(4),
		WithProbeEvery(time.Hour), // once open, stays open for the test
	)

	// Drive requests until the sick member has eaten a hard fault. Each
	// distinct budget is a fresh key; the retry lands on the survivor so
	// every request still succeeds.
	for i := 0; sickCalls.Load() == 0 && i < 20; i++ {
		if _, err := p.Run(context.Background(), testReq(uint64(1000+i))); err != nil {
			t.Fatalf("request %d failed despite a healthy survivor: %v", i, err)
		}
	}
	if got := sickCalls.Load(); got != 1 {
		t.Fatalf("sick member saw %d calls, want the 1 that opens its breaker", got)
	}

	// More traffic: the open breaker must keep the sick member drained.
	for i := 0; i < 10; i++ {
		if _, err := p.Run(context.Background(), testReq(uint64(2000+i))); err != nil {
			t.Fatalf("request with open breaker failed: %v", err)
		}
	}
	if got := sickCalls.Load(); got != 1 {
		t.Fatalf("open breaker leaked %d calls to the broken member", got-1)
	}
	for _, st := range p.Status() {
		if st.Name == "sick" && st.Breaker != "open" {
			t.Fatalf("sick member breaker %q, want open", st.Breaker)
		}
		if st.Name == "well" && st.Breaker != "closed" {
			t.Fatalf("well member breaker %q, want closed", st.Breaker)
		}
	}
}

// TestPoolBreakerHalfOpenRecovery: when the cooldown expires, one trial
// request reaches the member; a success closes the breaker and restores
// full routing.
func TestPoolBreakerHalfOpenRecovery(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	var calls atomic.Int64
	flaky := &fakeBackend{name: "flaky", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		calls.Add(1)
		if fail.Load() {
			return nil, fmt.Errorf("%w: down", ErrBackend)
		}
		return okRun("flaky")(ctx, req)
	}}
	other := &fakeBackend{name: "other", run: okRun("other")}
	p := newTestPool(t, []Backend{flaky, other},
		WithRetries(4),
		WithProbeEvery(30*time.Millisecond),
	)

	// One hard fault opens the breaker.
	for i := 0; calls.Load() == 0 && i < 20; i++ {
		if _, err := p.Run(context.Background(), testReq(uint64(3000+i))); err != nil {
			t.Fatal(err)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("flaky member never saw traffic")
	}

	// Heal the backend, let the cooldown lapse, and keep sending: the
	// half-open trial must land, succeed, and close the breaker.
	fail.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	recovered := false
	for i := 0; time.Now().Before(deadline); i++ {
		if _, err := p.Run(context.Background(), testReq(uint64(4000+i))); err != nil {
			t.Fatal(err)
		}
		for _, st := range p.Status() {
			if st.Name == "flaky" && st.Breaker == "closed" && st.Healthy {
				recovered = true
			}
		}
		if recovered {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("breaker never closed after the backend healed")
	}
}

// TestPoolBreakerIgnores503: overload sheds are answers, not faults — a
// member that sheds every request must never trip its breaker (it is
// alive and will drain).
func TestPoolBreakerIgnores503(t *testing.T) {
	shedder := &fakeBackend{name: "shedder", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: full", ErrOverloaded)
	}}
	worker := &fakeBackend{name: "worker", run: okRun("worker")}
	p := newTestPool(t, []Backend{shedder, worker}, WithProbeEvery(time.Hour))

	for i := 0; i < 10; i++ {
		if _, err := p.Run(context.Background(), testReq(uint64(5000+i))); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range p.Status() {
		if st.Name == "shedder" && (st.Breaker != "closed" || !st.Healthy) {
			t.Fatalf("shedding member: breaker=%q healthy=%v, want closed+healthy", st.Breaker, st.Healthy)
		}
	}
}

// TestPoolBreakerFallbackWhenAllOpen: with every breaker open the pool
// falls back to trying a broken member rather than refusing outright —
// an error from a real attempt beats a synthetic ErrNoBackends.
func TestPoolBreakerFallbackWhenAllOpen(t *testing.T) {
	mkBroken := func(name string) *fakeBackend {
		return &fakeBackend{name: name, run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
			return nil, fmt.Errorf("%w: %s broken", ErrBackend, name)
		}}
	}
	p := newTestPool(t, []Backend{mkBroken("a"), mkBroken("b")},
		WithRetries(2), WithProbeEvery(time.Hour))

	// First request trips both breakers (one per retry attempt).
	if _, err := p.Run(context.Background(), testReq(6000)); err == nil {
		t.Fatal("all-broken pool succeeded")
	}
	// Later requests still produce a real backend error, not ErrNoBackends.
	_, err := p.Run(context.Background(), testReq(6001))
	if err == nil {
		t.Fatal("all-broken pool succeeded")
	}
	if errors.Is(err, ErrNoBackends) {
		t.Fatalf("open breakers caused %v; want a real attempt's error", err)
	}
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("fallback attempt error %v, want ErrBackend", err)
	}
}
