// Package fleet distributes simulation work across a pool of backends.
// A Backend executes one run or experiment; Remote speaks the r3dlad
// wire format over HTTP, and Pool routes requests across many backends —
// least-loaded dispatch with per-backend inflight accounting, one
// circuit breaker per member as its health, bounded retries that exclude
// the backend that failed, and optional hedging of straggler requests.
//
// The contract that makes distribution safe is determinism: every run is
// a pure function of (workload, config, budget), keyed canonically as
// workload|configKey@budget. Any backend may execute any cell, a retried
// or hedged cell returns the same bytes as the first attempt, and output
// assembled from a fleet is byte-identical to a fully local run. The
// sweep journal sits on the client side of the Backend boundary, so
// checkpoint/resume behaves identically whether cells run locally or
// remotely; the pool itself keeps no results, since the backends' memos
// and result stores already do.
package fleet

import (
	"context"
	"errors"

	"r3dla/internal/lab"
)

// Typed dispatch errors. Request-validation failures keep their lab
// sentinels (lab.ErrInvalid, lab.ErrUnknownWorkload, …) so callers'
// errors.Is checks work unchanged across the network; the errors below
// classify backend faults, which the pool treats as retryable.
var (
	// ErrUnavailable marks a backend that cannot take the request right
	// now: connection refused or dropped, or a request timeout. Retrying
	// elsewhere is safe; the member's breaker opens until a trial request
	// is answered.
	ErrUnavailable = errors.New("fleet: backend unavailable")

	// ErrOverloaded marks a 503 from the server's admission control: the
	// backend is alive but shedding load. The pool treats it as
	// backpressure — prefer another member, or wait for capacity — not
	// as a death; a shed never opens the member's breaker.
	ErrOverloaded = errors.New("fleet: backend at capacity")

	// ErrBackend marks a backend-side failure (5xx, malformed response,
	// truncated stream). Deterministic work is safe to retry elsewhere.
	ErrBackend = errors.New("fleet: backend error")

	// ErrNoBackends means no backend was eligible to take the request
	// (every member excluded or the pool is empty).
	ErrNoBackends = errors.New("fleet: no eligible backends")
)

// Backend executes simulation work. Implementations must be safe for
// concurrent use; all results are deterministic functions of the request,
// so identical requests to different backends are interchangeable.
type Backend interface {
	// Name identifies the backend in errors and logs.
	Name() string

	// Run executes one simulation request.
	Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error)

	// Experiment regenerates one paper artifact by id, at the backend's
	// default budget.
	Experiment(ctx context.Context, id string) (*lab.Report, error)

	// Close releases the backend's resources.
	Close() error
}

// loadReporter is the optional Backend extension the pool uses to fold
// real server load into routing: Remote implements it via GET /v1/stats.
type loadReporter interface {
	Stats(ctx context.Context) (lab.Stats, error)
}

// Retryable reports whether err is a backend fault worth retrying on a
// different member (as opposed to a validation error or the caller's own
// cancellation, which would fail identically everywhere).
func Retryable(err error) bool {
	return errors.Is(err, ErrUnavailable) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrBackend)
}
