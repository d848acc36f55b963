package fleet

import (
	"sync"
	"time"
)

// breaker is a member's one health state. Real requests are its probes:
// a member whose /v1/healthz answers while its runs keep dying stays out
// of rotation, because only an answered request closes the breaker.
//
// States: closed (normal) → open on a hard fault, for a cooldown; open →
// half-open when the cooldown expires; half-open admits one trial
// request (only while the member is idle). Any answer closes the
// breaker, a 503 shed included, since an overloaded member is alive; a
// failed trial reopens it with the cooldown doubled, capped at 8× the
// first.
type breaker struct {
	base time.Duration // first cooldown; the cap is 8× this

	mu        sync.Mutex
	state     brkState
	cooldown  time.Duration // current open duration
	openUntil time.Time
}

type brkState int

const (
	brkClosed brkState = iota
	brkOpen
	brkHalfOpen
)

func (s brkState) String() string {
	switch s {
	case brkOpen:
		return "open"
	case brkHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// newBreaker builds a closed breaker whose first cooldown is cooldown.
func newBreaker(cooldown time.Duration) *breaker {
	return &breaker{base: cooldown}
}

// blocked reports whether the member must be skipped right now. An open
// breaker whose cooldown has expired transitions to half-open here; a
// half-open breaker admits a request only while the member is idle
// (inflight == 0), so exactly one class of trial traffic probes it
// instead of a thundering herd.
func (b *breaker) blocked(now time.Time, inflight int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brkClosed:
		return false
	case brkOpen:
		if now.Before(b.openUntil) {
			return true
		}
		b.state = brkHalfOpen
	}
	return inflight > 0
}

// success records a request the member answered: the breaker closes.
func (b *breaker) success() {
	b.mu.Lock()
	b.state = brkClosed
	b.mu.Unlock()
}

// failure records a hard fault. A closed breaker opens for the first
// cooldown; a failed half-open trial reopens it with the cooldown
// doubled.
func (b *breaker) failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brkClosed:
		b.cooldown = b.base
	case brkHalfOpen:
		b.cooldown = min(2*b.cooldown, 8*b.base)
	case brkOpen:
		// A straggling in-flight request failed after the breaker already
		// opened; the open window stands.
		return
	}
	b.state = brkOpen
	b.openUntil = now.Add(b.cooldown)
}

// current reports the breaker's state.
func (b *breaker) current() brkState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
