// Command r3dlad is the long-lived simulation service: an HTTP/JSON API
// over the r3dla Lab client. All requests share one Lab, so per-workload
// preparation and configuration runs are computed once (singleflight)
// and served from cache afterwards, and total compute is bounded by one
// server-wide worker pool.
//
// Usage:
//
//	r3dlad                                   # serve on :8080
//	r3dlad -addr :9000 -budget 300000 -jobs 8
//
// Endpoints:
//
//	GET  /v1/healthz              liveness + request counters
//	GET  /v1/stats                live load: inflight/capacity, budget caps, cache-miss runs
//	GET  /metrics                 the same counters in Prometheus text exposition format
//	GET  /v1/experiments          regenerable paper artifacts
//	GET  /v1/workloads            the evaluation suite
//	POST /v1/experiments/{id}     regenerate one artifact (?stream=1: NDJSON progress)
//	POST /v1/runs                 one simulation (RunRequest JSON body)
//	POST /v1/sweeps               parameter sweep (sweep.Spec JSON body; NDJSON cell stream)
//	POST /v1/explore              adaptive exploration (dse.Spec JSON body; NDJSON cell stream)
//
// With -result-cache the server persists every finished run result in a
// content-addressed on-disk store: an identical request after a restart
// is served byte-for-byte from disk without simulating, and concurrent
// identical requests from different clients coalesce onto one
// simulation. -inflight capacity is split fairly between priority
// classes (the X-R3DLA-Priority header: interactive or batch).
//
// A disconnecting client cancels its in-flight simulation cooperatively
// (accounted as a 499 in /v1/healthz counters); SIGINT/SIGTERM drain the
// server gracefully. Several r3dlad instances form a fleet: point
// `r3dla run|exp|sweep -backends host1:8080,host2:8080` at them and the
// client routes work least-loaded (balancing on /v1/stats), retries
// failed cells on surviving backends, and produces output byte-identical
// to a single-process run (README "Running a cluster", DESIGN.md §7).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"r3dla/internal/dse"
	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
	"r3dla/internal/sweep"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		budget    = flag.Uint64("budget", 150_000, "default committed instructions per simulation")
		jobs      = flag.Int("jobs", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		maxBudget = flag.Uint64("max-budget", 10_000_000, "largest per-request budget override (0 = unlimited)")
		inflight  = flag.Int("inflight", 64, "max concurrently admitted simulation requests (0 = unlimited)")
		resDir    = flag.String("result-cache", "", "directory persisting finished run results across restarts (empty = off)")
		resMax    = flag.Int("result-cache-max", 4096, "max entries the result cache retains before LRU eviction (0 = unlimited)")
	)
	flag.Parse()

	l, err := lab.New(lab.WithBudget(*budget), lab.WithJobs(*jobs))
	if err != nil {
		fmt.Fprintf(os.Stderr, "r3dlad: %v\n", err)
		os.Exit(1)
	}
	srvOpts := []lab.ServerOption{lab.WithMaxBudget(*maxBudget), lab.WithMaxInflight(*inflight)}
	if *resDir != "" {
		st, err := resultstore.Open(*resDir, lab.ResultsFingerprint, *resMax)
		if err != nil {
			fmt.Fprintf(os.Stderr, "r3dlad: %v\n", err)
			os.Exit(1)
		}
		srvOpts = append(srvOpts, lab.WithResultStore(st))
	}
	h := lab.NewServer(l, srvOpts...)
	h.Handle("POST /v1/sweeps", sweep.NewHandler(l, h))
	h.Handle("POST /v1/explore", dse.NewHandler(l, h))
	srv := &http.Server{
		Addr:        *addr,
		Handler:     h,
		ReadTimeout: 30 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "r3dlad: serving on %s (budget %d, jobs %d)\n", *addr, *budget, *jobs)

	select {
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "r3dlad: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "r3dlad: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "r3dlad: shutdown: %v\n", err)
		os.Exit(1)
	}
}
