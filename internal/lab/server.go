package lab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"r3dla/internal/faultinject"
	"r3dla/internal/resultstore"
	"r3dla/internal/workloads"
)

// StatusClientClosedRequest is the nginx-style status recorded when the
// client goes away while its simulation is in flight; the response can
// no longer be delivered, but the server accounts for the cleanup.
const StatusClientClosedRequest = 499

// PriorityHeader selects a request's admission class. Recognized values
// are PriorityInteractive (the default) and PriorityBatch; anything else
// is treated as interactive.
const PriorityHeader = "X-R3DLA-Priority"

// The admission classes. Interactive requests may use the whole
// admission capacity; batch requests (sweeps, explorations, bulk
// clients) are capped below it so a flood of batch work can never
// starve interactive runs.
const (
	PriorityInteractive = "interactive"
	PriorityBatch       = "batch"
)

const (
	classInteractive = iota
	classBatch
	numClasses
)

// ResultsFingerprint ties persisted RunResults to the simulation
// semantics that produced them; it is the fingerprint to pass to
// resultstore.Open for a store serving this package's results. Bump it
// whenever RunResult's encoding or the simulator's observable behavior
// changes, so a store written by an older binary reads as all misses
// instead of wrong answers.
const ResultsFingerprint uint64 = 1

// Server is the r3dlad HTTP handler: a JSON/NDJSON API over one shared
// Lab, so every request hits the same memo and the same bounded worker
// pool (the server-wide job semaphore).
//
//	GET  /v1/healthz              liveness + request counters
//	GET  /v1/stats                load + admission policy (the fleet router balances on it)
//	GET  /metrics                 the same counters in Prometheus text format
//	GET  /v1/experiments          the regenerable artifacts
//	GET  /v1/workloads            the evaluation suite
//	POST /v1/experiments/{id}     regenerate one artifact (?stream=1 for NDJSON progress)
//	POST /v1/runs                 one simulation: RunRequest -> RunResult (?stream=1 likewise)
//
// Identical concurrent /v1/runs coalesce into one simulation through the
// Lab's memo, which cancels it only when every request waiting on it has
// gone, and — when a result store is configured — finished answers
// persist across restarts.
type Server struct {
	lab   *Lab
	mux   *http.ServeMux
	start time.Time

	maxBudget uint64 // largest per-request budget accepted (0 = unlimited)

	// Admission control. capacity bounds total admitted requests;
	// reserve is headroom only interactive requests may use, so batch
	// admission is capped at capacity-reserve.
	capacity int
	reserve  int
	admMu    sync.Mutex
	admTotal int
	admBatch int
	classes  [numClasses]classCounters

	store *resultstore.Store // persistent result tier (nil = off)

	faults *faultinject.Plane // injection plane for chaos runs (nil = off)

	coalesced atomic.Int64 // /v1/runs requests that joined a running simulation

	active    atomic.Int64 // simulation requests in flight
	completed atomic.Int64 // simulation requests answered 200
	canceled  atomic.Int64 // simulation requests whose client went away
}

// classCounters are one admission class's cumulative and live counters.
type classCounters struct {
	inflight atomic.Int64
	admitted atomic.Int64
	shed     atomic.Int64
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxBudget caps the per-request budget override (0 = unlimited).
func WithMaxBudget(n uint64) ServerOption {
	return func(s *Server) { s.maxBudget = n }
}

// WithMaxInflight bounds how many simulation requests are admitted
// concurrently; excess requests get 503 immediately instead of queueing
// (<= 0 = unlimited). A quarter of the capacity (at least one slot) is
// reserved for interactive requests: batch-class requests are shed once
// they occupy the rest, so sweeps can't starve interactive runs. This
// bounds admission; actual compute parallelism is bounded by the Lab's
// worker pool either way.
func WithMaxInflight(n int) ServerOption {
	return func(s *Server) {
		if n <= 0 {
			return
		}
		s.capacity = n
		s.reserve = n / 4
		if s.reserve < 1 {
			s.reserve = 1
		}
	}
}

// WithServerFaults arms a fault-injection plane on the request path: an
// armed faultinject.ServerRun policy makes POST /v1/runs stall (Delay)
// or shed with 503 (Error) before touching the store or admission — the
// degraded-backend behaviors the fleet's breaker and retry machinery
// must absorb. A nil plane is a no-op.
func WithServerFaults(p *faultinject.Plane) ServerOption {
	return func(s *Server) { s.faults = p }
}

// WithResultStore attaches a persistent result store: finished /v1/runs
// answers are written through to it, and repeated requests — across
// clients, restarts, and processes sharing the directory — are served
// from it without admission or simulation. Open the store with
// ResultsFingerprint so semantics changes invalidate it.
func WithResultStore(st *resultstore.Store) ServerOption {
	return func(s *Server) { s.store = st }
}

// NewServer builds the service handler over a shared Lab.
func NewServer(l *Lab, opts ...ServerOption) *Server {
	s := &Server{
		lab:   l,
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/workloads", s.handleListWorkloads)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.handleExperiment)
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no such endpoint: %s %s", r.Method, r.URL.Path))
	})
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Every request carries an outcome cell, so classification into the
	// completed/canceled counters is idempotent no matter how many layers
	// (extension handlers calling Observe plus the server's own finish
	// paths) classify the same request.
	r = r.WithContext(context.WithValue(r.Context(), outcomeKey{}, new(outcomeCell)))
	s.mux.ServeHTTP(w, r)
}

// Handle mounts an extension route (the sweep endpoint) on the server's
// mux. Extension handlers share the server's Lab, admission policy and
// request counters through Admit/Observe.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// Admit reserves an admission slot for an extension handler's simulation
// request, exactly as the built-in run/experiment endpoints do: when the
// server is at capacity for the request's class (the PriorityHeader on
// r) the client gets 503 and ok is false; otherwise the request counts
// as active until release is called.
func (s *Server) Admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	return s.admitRequest(w, r)
}

// Observe classifies an extension request's outcome into the healthz
// counters: nil marks it completed, a cancellation (the client went away)
// marks it canceled. It does not write a response. Accounting is
// idempotent per request: the first classification wins, repeats are
// no-ops.
func (s *Server) Observe(ctx context.Context, err error) { s.observe(ctx, err) }

// MaxBudget reports the per-request budget cap (0 = unlimited), so
// extension handlers enforce the same admission policy as POST /v1/runs.
func (s *Server) MaxBudget() uint64 { return s.maxBudget }

// ------------------------------------------------------------- plumbing

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// WriteError writes err as the JSON error body every endpoint answers
// with, extension handlers included.
func WriteError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error()})
}

// errorStatus maps a lab error to an HTTP status.
func errorStatus(ctx context.Context, err error) int {
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StatusClientClosedRequest
	case errors.Is(err, ErrUnknownWorkload), errors.Is(err, ErrUnknownExperiment):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// outcomeKey carries a request's outcomeCell in its context.
type outcomeKey struct{}

// outcomeCell latches the first outcome classification for one request,
// making repeated Observe/finish calls on the same request idempotent.
type outcomeCell struct{ done atomic.Bool }

// observe classifies a request's outcome into the completed/canceled
// counters, at most once per request (requests without a cell — bare
// contexts in tests or embedded use — count every call).
func (s *Server) observe(ctx context.Context, err error) {
	if cell, ok := ctx.Value(outcomeKey{}).(*outcomeCell); ok {
		if !cell.done.CompareAndSwap(false, true) {
			return
		}
	}
	if err == nil {
		s.completed.Add(1)
		return
	}
	if errorStatus(ctx, err) == StatusClientClosedRequest {
		s.canceled.Add(1)
	}
}

// requestClass maps a request's PriorityHeader to its admission class.
func requestClass(r *http.Request) int {
	if r != nil && strings.EqualFold(r.Header.Get(PriorityHeader), PriorityBatch) {
		return classBatch
	}
	return classInteractive
}

// admitRequest reserves an admission slot for the request's class (when
// bounded) and marks the request active; the returned release undoes
// both. Interactive requests may use the whole capacity; batch requests
// only capacity-reserve of it. Shedding is immediate (503), never
// queued, so the fleet router's backpressure semantics are unchanged.
func (s *Server) admitRequest(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	class := requestClass(r)
	if s.capacity > 0 {
		s.admMu.Lock()
		overTotal := s.admTotal >= s.capacity
		overClass := class == classBatch && s.admBatch >= s.capacity-s.reserve
		if overTotal || overClass {
			s.admMu.Unlock()
			s.classes[class].shed.Add(1)
			if overClass && !overTotal {
				WriteError(w, http.StatusServiceUnavailable,
					errors.New("server at batch capacity (interactive reserve), retry later"))
			} else {
				WriteError(w, http.StatusServiceUnavailable, errors.New("server at capacity, retry later"))
			}
			return nil, false
		}
		s.admTotal++
		if class == classBatch {
			s.admBatch++
		}
		s.admMu.Unlock()
	}
	s.classes[class].admitted.Add(1)
	s.classes[class].inflight.Add(1)
	s.active.Add(1)
	return func() {
		s.active.Add(-1)
		s.classes[class].inflight.Add(-1)
		if s.capacity > 0 {
			s.admMu.Lock()
			s.admTotal--
			if class == classBatch {
				s.admBatch--
			}
			s.admMu.Unlock()
		}
	}, true
}

// finish classifies a request's outcome into the server counters and
// writes the error response (when the client is still there to read it).
func (s *Server) finish(w http.ResponseWriter, r *http.Request, err error) {
	if err == nil {
		s.observe(r.Context(), nil)
		return
	}
	status := errorStatus(r.Context(), err)
	s.observe(r.Context(), err)
	if status == StatusClientClosedRequest {
		// The client is gone; the status line is for the access log only.
		w.WriteHeader(StatusClientClosedRequest)
		return
	}
	WriteError(w, status, err)
}

// ------------------------------------------------------ result store IO

// storeGet consults the persistent result tier. Anomalies (including a
// payload a newer binary can't decode) read as misses.
func (s *Server) storeGet(key string) (*RunResult, bool) {
	if s.store == nil {
		return nil, false
	}
	data, ok := s.store.Get(key)
	if !ok {
		return nil, false
	}
	var res RunResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, false
	}
	return &res, true
}

// storePut persists a finished answer (best effort: a full disk must not
// fail the request that computed the result).
func (s *Server) storePut(key string, res *RunResult) {
	if s.store == nil {
		return
	}
	if data, err := json.Marshal(res); err == nil {
		s.store.Put(key, data)
	}
}

// ------------------------------------------------------------- handlers

// Health is the healthz response body.
type Health struct {
	Status      string  `json:"status"`
	UptimeSec   float64 `json:"uptime_sec"`
	Budget      uint64  `json:"budget"`
	Active      int64   `json:"active"`
	Completed   int64   `json:"completed"`
	Canceled    int64   `json:"canceled"`
	Experiments int     `json:"experiments"`
	Workloads   int     `json:"workloads"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:      "ok",
		UptimeSec:   time.Since(s.start).Seconds(),
		Budget:      s.lab.Budget(),
		Active:      s.active.Load(),
		Completed:   s.completed.Load(),
		Canceled:    s.canceled.Load(),
		Experiments: len(ListExperiments()),
		Workloads:   len(ListWorkloads()),
	})
}

// ClassStats is one admission class's live and cumulative counters.
type ClassStats struct {
	Inflight int64 `json:"inflight"` // admitted requests in flight
	Admitted int64 `json:"admitted"` // cumulative admissions
	Shed     int64 `json:"shed"`     // cumulative 503s
}

// Stats is the /v1/stats response body: live admission occupancy and
// policy, per-class counters, the coalescing and result-store counters,
// and the shared Lab's cache-miss count. A fleet router reads it to
// balance on real load (Inflight counts every client's requests, not
// just the caller's) and to know how much headroom a member has before
// admission control sheds to 503. `?format=prometheus` (or GET /metrics)
// renders the same counters in Prometheus text format.
type Stats struct {
	Inflight    int64             `json:"inflight"`          // simulation requests currently admitted
	Capacity    int               `json:"capacity"`          // admission bound (0 = unlimited)
	MaxBudget   uint64            `json:"max_budget"`        // per-request budget cap (0 = unlimited)
	Budget      uint64            `json:"budget"`            // default per-run budget
	Completed   int64             `json:"completed"`         // requests answered successfully
	Canceled    int64             `json:"canceled"`          // requests whose client went away
	Runs        int               `json:"runs"`              // simulations actually executed (cache misses)
	Coalesced   int64             `json:"coalesced_waiters"` // requests that shared another request's simulation
	Interactive ClassStats        `json:"interactive"`
	Batch       ClassStats        `json:"batch"`
	Store       resultstore.Stats `json:"store"` // persistent result tier (zeros when off)
}

// statsSnapshot gathers the Stats body (shared by the JSON and
// Prometheus renderings).
func (s *Server) statsSnapshot() Stats {
	st := Stats{
		Inflight:  s.active.Load(),
		Capacity:  s.capacity,
		MaxBudget: s.maxBudget,
		Budget:    s.lab.Budget(),
		Completed: s.completed.Load(),
		Canceled:  s.canceled.Load(),
		Runs:      s.lab.RunCount(),
		Coalesced: s.coalesced.Load(),
		Interactive: ClassStats{
			Inflight: s.classes[classInteractive].inflight.Load(),
			Admitted: s.classes[classInteractive].admitted.Load(),
			Shed:     s.classes[classInteractive].shed.Load(),
		},
		Batch: ClassStats{
			Inflight: s.classes[classBatch].inflight.Load(),
			Admitted: s.classes[classBatch].admitted.Load(),
			Shed:     s.classes[classBatch].shed.Load(),
		},
	}
	if s.store != nil {
		st.Store = s.store.Stats()
	}
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		s.handleMetrics(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListExperiments())
}

func (s *Server) handleListWorkloads(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListWorkloads())
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := ExperimentByID(id); !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownExperiment, id))
		return
	}
	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()

	if r.URL.Query().Get("stream") != "" {
		s.stream(w, r, func(l *Lab) (any, error) {
			return l.Experiment(r.Context(), ExperimentRequest{ID: id})
		})
		return
	}

	rep, err := s.lab.Experiment(r.Context(), ExperimentRequest{ID: id})
	if err != nil {
		s.finish(w, r, err)
		return
	}
	// The report is computed; count it completed like handleRun does,
	// whether or not the client sticks around for the body. The body is
	// exactly the engine's WriteJSON rendering — byte-identical to
	// `r3dla -exp <id> -format json` at the same budget.
	s.observe(r.Context(), nil)
	w.Header().Set("Content-Type", "application/json")
	rep.WriteJSON(w)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.faults != nil {
		o := s.faults.At(faultinject.ServerRun)
		if o.Delay > 0 {
			// A slow backend, not a dead one: stall the whole response
			// (clients see a latency spike) but respect disconnects.
			t := time.NewTimer(o.Delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		if o.Err != nil {
			// Shed exactly like admission does, so clients exercise their
			// normal 503 backpressure path (fleet maps it to ErrOverloaded).
			s.classes[requestClass(r)].shed.Add(1)
			WriteError(w, http.StatusServiceUnavailable,
				fmt.Errorf("injected shed: %v", o.Err))
			return
		}
	}
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("%w: %v", ErrInvalid, err))
		return
	}
	if s.maxBudget > 0 && req.Budget > s.maxBudget {
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("%w: budget %d exceeds server cap %d", ErrInvalid, req.Budget, s.maxBudget))
		return
	}
	// Resolve the request up front so validation failures are proper 400s
	// and unknown workloads 404s — in particular before a ?stream=1
	// response commits to status 200.
	cfg, err := req.Config.Config()
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	if workloads.ByName(req.Workload) == nil {
		WriteError(w, http.StatusNotFound, fmt.Errorf("%w: %q", ErrUnknownWorkload, req.Workload))
		return
	}
	// The canonical identity of this simulation — the same key the Lab's
	// in-memory cache, the fleet router and the persistent store all use.
	budget := req.Budget
	if budget == 0 {
		budget = s.lab.Budget()
	}
	key := RunKey(req.Workload, cfg, budget)
	stream := r.URL.Query().Get("stream") != ""

	// Durable tier first: a persisted answer needs no admission slot and
	// no simulation, and re-encoding the decoded result is byte-identical
	// to a cold run's response (RunResult's JSON encoding is
	// deterministic).
	if res, ok := s.storeGet(key); ok {
		if stream {
			s.stream(w, r, func(*Lab) (any, error) { return res, nil })
			return
		}
		s.observe(r.Context(), nil)
		writeJSON(w, http.StatusOK, res)
		return
	}

	release, ok := s.admitRequest(w, r)
	if !ok {
		return
	}
	defer release()

	// Identical requests share one simulation through the Lab's memo. The
	// request that runs it writes the answer to the store before any
	// request waiting on it wakes.
	run := func(l *Lab) (*RunResult, error) {
		p, err := l.Prepare(r.Context(), req.Workload)
		if err != nil {
			return nil, err
		}
		return l.runPrepared(r.Context(), p, cfg, budget,
			func() { s.coalesced.Add(1) },
			func(res *RunResult) { s.storePut(key, res) })
	}
	if stream {
		s.stream(w, r, func(l *Lab) (any, error) { return run(l) })
		return
	}
	res, err := run(s.lab)
	if err != nil {
		s.finish(w, r, err)
		return
	}
	s.observe(r.Context(), nil)
	writeJSON(w, http.StatusOK, res)
}

// ------------------------------------------------------------ streaming

// StreamLine is one NDJSON line of a ?stream=1 response: progress events
// ("prep", "run", "exp") as work happens, then exactly one terminal line
// ("result" with the payload, or "error").
type StreamLine struct {
	Event     string  `json:"event"`
	Workload  string  `json:"workload,omitempty"`
	Key       string  `json:"key,omitempty"`
	ID        string  `json:"id,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Result    any     `json:"result,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// Stream answers a validated, admitted request as NDJSON, the one way
// every streaming endpoint does: status 200, the progress lines run
// writes through emit (each flushed at once; emit is safe for concurrent
// use), then one terminal line, "result" carrying run's value or
// "error", which the handler's return flushes. observe classifies run's
// outcome before the terminal line is written.
func Stream(w http.ResponseWriter, observe func(error), run func(emit func(line any)) (any, error)) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	res, err := run(func(line any) {
		mu.Lock()
		defer mu.Unlock()
		enc.Encode(line)
		if flusher != nil {
			flusher.Flush()
		}
	})
	observe(err)
	last := StreamLine{Event: "result", Result: res}
	if err != nil {
		last = StreamLine{Event: "error", Error: err.Error()}
	}
	mu.Lock()
	defer mu.Unlock()
	enc.Encode(last)
}

// stream answers a ?stream=1 request: f runs on a Lab whose engine events
// become progress lines.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, f func(l *Lab) (any, error)) {
	observe := func(err error) { s.observe(r.Context(), err) }
	Stream(w, observe, func(emit func(any)) (any, error) {
		return f(s.lab.WithProgress(func(ev Event) {
			emit(StreamLine{
				Event:     ev.Stage,
				Workload:  ev.Workload,
				Key:       ev.Key,
				ID:        ev.Exp,
				ElapsedMS: float64(ev.Elapsed.Microseconds()) / 1000,
			})
		}))
	})
}
