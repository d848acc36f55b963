// Package memo is the module's one singleflight cache. It backs the
// experiment engine's prep and run tables (and through them every Lab
// and the r3dlad server) and the tier calibrator.
//
// Each keyed computation runs at most once at a time. A success is kept
// and returned to later callers; a failure is not. The computation runs
// on the goroutine of the caller that starts it, under a context that
// ends only when every caller waiting on it has gone, so one caller's
// cancellation never costs the others their answer, and work reaches
// shared semaphores in the order callers arrive.
package memo

import (
	"context"
	"fmt"
	"sync"
)

// Memo maps string keys to values computed at most once at a time. E is
// the type of the progress events a computation may emit. The zero Memo
// is empty and ready to use.
type Memo[V, E any] struct {
	mu      sync.Mutex
	done    map[string]V
	flights map[string]*flight[V, E]
}

// Watcher is how one call follows the flight it waits on. Both fields
// may be nil.
type Watcher[E any] struct {
	// Events receives the flight's progress events. Calls passing the
	// same pointer are one watcher and see each event once.
	Events *func(E)
	// Joined runs when the call starts waiting on a flight another
	// caller started.
	Joined func()
}

// flight is one computation in progress. refs and abandoned are guarded
// by the Memo's mutex; val and err are final once wake is closed.
type flight[V, E any] struct {
	wake chan struct{}
	val  V
	err  error

	cancel    context.CancelFunc // ends the computation's context
	refs      int                // calls still waiting, the starter included
	abandoned bool               // refs reached zero before the computation ended

	// emitMu is held while an event is delivered, so a call that leaves
	// has its watcher dropped only once no delivery to it is under way:
	// a watcher is never called after its last call has returned.
	emitMu   sync.Mutex
	watchers map[*func(E)]int // watcher -> waiting calls using it
}

// Do is Watch for a computation that reports no progress.
func (m *Memo[V, E]) Do(ctx context.Context, key string, f func(context.Context) (V, error)) (V, error) {
	return m.Watch(ctx, key, Watcher[E]{}, func(ctx context.Context, _ func(E)) (V, error) { return f(ctx) })
}

// Watch returns the value kept for key, or computes it with f.
//
// At most one f runs per key. It runs on the goroutine of the call that
// starts it, with a context that ends only once every call waiting on it
// has gone (the starter included), and with emit, which delivers an
// event to each watcher of the flight. A call that waits on another
// caller's flight returns ctx.Err() as soon as its own ctx ends; if the
// flight it waited on failed because every caller had gone, and its own
// ctx is still live, it starts a new flight. The starter returns ctx.Err()
// if its ctx ended while f ran. If f panics, the calls waiting on it wake
// with an error, nothing is kept, and the panic goes on in the starter.
//
// f must not call Watch for the same key, and an Events function must
// not call into the Memo.
func (m *Memo[V, E]) Watch(ctx context.Context, key string, w Watcher[E], f func(ctx context.Context, emit func(E)) (V, error)) (V, error) {
	var zero V
	for {
		m.mu.Lock()
		if v, ok := m.done[key]; ok {
			m.mu.Unlock()
			return v, nil
		}
		fl, ok := m.flights[key]
		if !ok {
			return m.start(ctx, key, w.Events, f)
		}
		fl.refs++
		m.mu.Unlock()
		fl.watch(w.Events)
		if w.Joined != nil {
			w.Joined()
		}
		select {
		case <-fl.wake:
			if fl.err != nil && fl.abandoned && ctx.Err() == nil {
				continue
			}
			return fl.val, fl.err
		case <-ctx.Done():
			m.leave(fl, w.Events)
			return zero, ctx.Err()
		}
	}
}

// start runs f as the new flight for key; m.mu is held on entry.
func (m *Memo[V, E]) start(ctx context.Context, key string, events *func(E), f func(context.Context, func(E)) (V, error)) (V, error) {
	var zero V
	if err := ctx.Err(); err != nil {
		m.mu.Unlock()
		return zero, err
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	fl := &flight[V, E]{wake: make(chan struct{}), cancel: cancel, refs: 1}
	if m.flights == nil {
		m.flights = make(map[string]*flight[V, E])
	}
	m.flights[key] = fl
	m.mu.Unlock()
	fl.watch(events)

	stop := context.AfterFunc(ctx, func() { m.leave(fl, events) })
	finished := false
	defer func() {
		if !finished { // f panicked
			stop()
			m.finish(key, fl, zero, fmt.Errorf("memo: computing %q panicked", key))
		}
	}()
	v, err := f(fctx, fl.emit)
	finished = true
	stop()
	m.finish(key, fl, v, err)
	if cerr := ctx.Err(); cerr != nil {
		return zero, cerr
	}
	return v, err
}

// finish publishes a flight's outcome, keeping a success, wakes the
// calls waiting on it and releases its context.
func (m *Memo[V, E]) finish(key string, fl *flight[V, E], v V, err error) {
	m.mu.Lock()
	delete(m.flights, key)
	if err == nil {
		if m.done == nil {
			m.done = make(map[string]V)
		}
		m.done[key] = v
	}
	fl.val, fl.err = v, err
	close(fl.wake)
	m.mu.Unlock()
	fl.cancel()
}

// leave drops a call that stopped waiting on fl. The last call out
// cancels the computation: nobody is left to read its answer.
func (m *Memo[V, E]) leave(fl *flight[V, E], events *func(E)) {
	fl.unwatch(events)
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-fl.wake:
		return // already finished; nothing to cancel
	default:
	}
	if fl.refs--; fl.refs == 0 {
		fl.abandoned = true
		fl.cancel()
	}
}

// emit delivers ev to each watcher once.
func (fl *flight[V, E]) emit(ev E) {
	fl.emitMu.Lock()
	defer fl.emitMu.Unlock()
	for w := range fl.watchers {
		if *w != nil {
			(*w)(ev)
		}
	}
}

func (fl *flight[V, E]) watch(w *func(E)) {
	if w == nil {
		return
	}
	fl.emitMu.Lock()
	defer fl.emitMu.Unlock()
	if fl.watchers == nil {
		fl.watchers = make(map[*func(E)]int)
	}
	fl.watchers[w]++
}

// unwatch drops one call's use of w; once no call uses it, w receives
// no further events.
func (fl *flight[V, E]) unwatch(w *func(E)) {
	if w == nil {
		return
	}
	fl.emitMu.Lock()
	defer fl.emitMu.Unlock()
	if fl.watchers[w]--; fl.watchers[w] <= 0 {
		delete(fl.watchers, w)
	}
}
