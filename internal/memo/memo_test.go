package memo

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test unless ch is ready within five seconds.
func within(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// joinedSignal returns a Watcher whose Joined closes the returned channel.
func joinedSignal() (Watcher[int], chan struct{}) {
	ch := make(chan struct{})
	return Watcher[int]{Joined: func() { close(ch) }}, ch
}

// TestSingleflightWaiterCancel: a waiter whose context ends while another
// caller's computation is in flight returns its ctx.Err() at once
// instead of blocking for the whole computation; the starter is
// unaffected, and its value is served to later callers.
func TestSingleflightWaiterCancel(t *testing.T) {
	var m Memo[int, int]
	block := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan int, 1)
	go func() {
		v, _ := m.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-block
			return 42, nil
		})
		leaderDone <- v
	}()
	within(t, started, "the starter")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	aborted := make(chan struct{})
	go func() {
		defer close(aborted)
		_, err := m.Do(ctx, "k", func(context.Context) (int, error) {
			t.Error("canceled waiter started a computation")
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("canceled waiter got %v, want context.Canceled", err)
		}
	}()
	within(t, aborted, "the canceled waiter to return")

	close(block)
	if v := <-leaderDone; v != 42 {
		t.Fatalf("starter got %d", v)
	}
	v, err := m.Do(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("recomputed a kept value")
		return 0, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("later caller got %d, %v", v, err)
	}
}

// TestSingleflightLeaderPanicRetries: a flight that dies of cancellation
// (every caller had gone, and the computation panicked out the way the
// engine's cancellation does) while a new caller waits on it leaves
// nothing kept; that caller starts a new flight, and its value is kept.
func TestSingleflightLeaderPanicRetries(t *testing.T) {
	var m Memo[int, int]
	lctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	dying := make(chan struct{})
	block := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		m.Do(lctx, "k", func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done() // the starter left and nobody else waits
			close(dying)
			<-block
			panic("canceled")
		})
	}()
	within(t, started, "the starter")
	cancel()
	within(t, dying, "the abandoned flight to see its context end")

	w, joined := joinedSignal()
	followerDone := make(chan int, 1)
	go func() {
		v, err := m.Watch(context.Background(), "k", w, func(ctx context.Context, _ func(int)) (int, error) {
			return 7, ctx.Err()
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerDone <- v
	}()
	within(t, joined, "the follower to join the dying flight")
	close(block)
	if r := <-leaderPanicked; r != "canceled" {
		t.Fatalf("starter's panic = %v, want it re-raised", r)
	}
	select {
	case v := <-followerDone:
		if v != 7 {
			t.Fatalf("follower's retry got %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never started a new flight")
	}
	v, _ := m.Do(context.Background(), "k", func(context.Context) (int, error) {
		t.Error("recomputed")
		return 0, nil
	})
	if v != 7 {
		t.Fatalf("the retry's value was not kept: %d", v)
	}
}

// TestStarterLeavesWaiterGetsValue: the starter's context ending while
// another caller waits does not stop the computation. It still runs
// once, on the starter's goroutine (the starter's call returns only
// after it), and the waiter gets its value.
func TestStarterLeavesWaiterGetsValue(t *testing.T) {
	var m Memo[int, int]
	var runs atomic.Int32
	var computed atomic.Bool
	started := make(chan struct{})
	release := make(chan struct{})
	f := func(ctx context.Context, _ func(int)) (int, error) {
		runs.Add(1)
		close(started)
		<-release
		if ctx.Err() != nil {
			t.Error("the computation was canceled while a caller still waited")
		}
		computed.Store(true)
		return 5, nil
	}
	lctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := m.Watch(lctx, "k", Watcher[int]{}, f)
		if !computed.Load() {
			t.Error("the starter returned before its computation finished")
		}
		leaderDone <- err
	}()
	within(t, started, "the starter")

	w, joined := joinedSignal()
	waiterDone := make(chan int, 1)
	go func() {
		v, err := m.Watch(context.Background(), "k", w, f)
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiterDone <- v
	}()
	within(t, joined, "the waiter to join")
	cancel()
	close(release)
	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled starter got %v, want context.Canceled", err)
	}
	if v := <-waiterDone; v != 5 {
		t.Fatalf("waiter got %d, want 5", v)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("computation ran %d times, want 1", n)
	}
}

// TestLastCallerCancels: the computation's context outlives every caller
// but the last; when the last one leaves it ends, the failure is not
// kept, and the next call computes afresh.
func TestLastCallerCancels(t *testing.T) {
	var m Memo[int, int]
	fctx := make(chan context.Context, 1)
	lctx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, err := m.Do(lctx, "k", func(ctx context.Context) (int, error) {
			fctx <- ctx
			<-ctx.Done()
			return 0, ctx.Err()
		})
		leaderDone <- err
	}()
	ctx := <-fctx

	wctx, cancelWaiter := context.WithCancel(context.Background())
	w, joined := joinedSignal()
	waiterDone := make(chan error, 1)
	go func() {
		_, err := m.Watch(wctx, "k", w, func(context.Context, func(int)) (int, error) { return 0, nil })
		waiterDone <- err
	}()
	within(t, joined, "the waiter to join")
	cancelWaiter()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter got %v, want context.Canceled", err)
	}
	if ctx.Err() != nil {
		t.Fatal("a waiter leaving canceled the computation while its starter stayed")
	}

	cancelLeader()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("starter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the last caller leaving did not cancel the computation")
	}
	v, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("after an abandoned flight got %d, %v; want a fresh computation", v, err)
	}
}

// TestEventsReachEachWatcherOnce: every distinct watcher waiting on a
// flight sees each of its events exactly once, however many of its calls
// wait; a call that left before an event does not see it.
func TestEventsReachEachWatcherOnce(t *testing.T) {
	var m Memo[int, string]
	var mu sync.Mutex
	seen := map[string][]string{}
	watcher := func(name string) *func(string) {
		f := func(ev string) {
			mu.Lock()
			seen[name] = append(seen[name], ev)
			mu.Unlock()
		}
		return &f
	}
	a, b, c, gone := watcher("a"), watcher("b"), watcher("c"), watcher("gone")

	var joins sync.WaitGroup
	release := make(chan struct{})
	f := func(_ context.Context, emit func(string)) (int, error) {
		<-release
		emit("one")
		emit("two")
		return 1, nil
	}
	started := make(chan struct{})
	var calls sync.WaitGroup
	calls.Add(1)
	go func() {
		defer calls.Done()
		m.Watch(context.Background(), "k", Watcher[string]{Events: a}, func(ctx context.Context, emit func(string)) (int, error) {
			close(started)
			return f(ctx, emit)
		})
	}()
	within(t, started, "the starter")

	wait := func(ctx context.Context, events *func(string)) chan struct{} {
		joins.Add(1)
		calls.Add(1)
		done := make(chan struct{})
		go func() {
			defer calls.Done()
			defer close(done)
			m.Watch(ctx, "k", Watcher[string]{Events: events, Joined: joins.Done}, f)
		}()
		return done
	}
	for _, w := range []*func(string){a, b, b, c} {
		wait(context.Background(), w)
	}
	gctx, leave := context.WithCancel(context.Background())
	left := wait(gctx, gone)
	joins.Wait()
	leave()
	within(t, left, "the leaving call to return")
	close(release)
	calls.Wait()

	for _, name := range []string{"a", "b", "c"} {
		if got := seen[name]; len(got) != 2 || got[0] != "one" || got[1] != "two" {
			t.Errorf("watcher %s saw %v, want [one two]", name, got)
		}
	}
	if got := seen["gone"]; len(got) != 0 {
		t.Errorf("a watcher that left saw %v", got)
	}
}

// TestPanicWakesWaiters: a computation that panics wakes its waiters
// with an error, re-raises the panic in the starter and keeps nothing.
func TestPanicWakesWaiters(t *testing.T) {
	var m Memo[int, int]
	started := make(chan struct{})
	block := make(chan struct{})
	leaderPanicked := make(chan any, 1)
	go func() {
		defer func() { leaderPanicked <- recover() }()
		m.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-block
			panic("boom")
		})
	}()
	within(t, started, "the starter")

	w, joined := joinedSignal()
	waiterErr := make(chan error, 1)
	go func() {
		_, err := m.Watch(context.Background(), "k", w, func(context.Context, func(int)) (int, error) {
			t.Error("a live waiter of a panicked flight recomputed")
			return 0, nil
		})
		waiterErr <- err
	}()
	within(t, joined, "the waiter to join")
	close(block)
	if r := <-leaderPanicked; r != "boom" {
		t.Fatalf("starter's panic = %v, want boom", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("waiter of a panicked flight got %v, want the panic's error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a panic left its waiter blocked")
	}
	v, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("after a panic got %d, %v; want a fresh computation", v, err)
	}
}

// TestFailureNotKept: an error reaches the callers of its flight and is
// not kept; the next call computes again.
func TestFailureNotKept(t *testing.T) {
	var m Memo[int, int]
	boom := errors.New("boom")
	if _, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	v, err := m.Do(context.Background(), "k", func(context.Context) (int, error) { return 4, nil })
	if err != nil || v != 4 {
		t.Fatalf("got %d, %v after a failure; want a fresh computation", v, err)
	}
}
