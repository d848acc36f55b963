package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"r3dla/internal/faultinject"
	"r3dla/internal/lab"
)

// Remote is the HTTP Backend: it speaks r3dlad's wire format — JSON
// requests, NDJSON streaming responses for runs — and maps
// HTTP statuses back onto the lab's typed errors, so a caller cannot tell
// a remote validation failure from a local one. Runs always use
// ?stream=1: progress lines keep the connection demonstrably alive during
// long simulations, and a connection dropped mid-run surfaces as a
// retryable ErrUnavailable instead of a hang.
type Remote struct {
	name     string
	base     string // http://host:port, no trailing slash
	hc       *http.Client
	tr       *http.Transport // the Remote's own bounded transport, under any fault wrap
	priority string          // admission class sent with every request ("" = server default)
	faults   *faultinject.Plane
}

// RemoteOption configures a Remote.
type RemoteOption func(*Remote)

// WithFaults threads a fault-injection plane into the Remote's transport
// (chaos testing only): connect errors, latency spikes and mid-stream
// body cuts, all seed-deterministic.
func WithFaults(p *faultinject.Plane) RemoteOption {
	return func(r *Remote) { r.faults = p }
}

// WithPriority stamps every request with an admission class
// (lab.PriorityInteractive or lab.PriorityBatch) via the
// lab.PriorityHeader header, so the server's fair-share admission knows
// bulk traffic from interactive traffic. Empty (the default) sends no
// header, which the server treats as interactive.
func WithPriority(class string) RemoteOption {
	return func(r *Remote) { r.priority = class }
}

// NewRemote builds a Backend for one r3dlad instance. addr is a host:port
// or an http(s) URL.
func NewRemote(addr string, opts ...RemoteOption) (*Remote, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	u, err := url.Parse(base)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("%w: backend address %q", lab.ErrInvalid, addr)
	}
	r := &Remote{name: addr, base: strings.TrimRight(base, "/"), tr: newTransport()}
	for _, o := range opts {
		o(r)
	}
	var rt http.RoundTripper = r.tr
	if r.faults != nil {
		rt = &faultTransport{base: r.tr, plane: r.faults}
	}
	r.hc = &http.Client{Transport: rt}
	return r, nil
}

func (r *Remote) Name() string { return r.name }

// Close releases the Remote's idle connections.
func (r *Remote) Close() error {
	r.tr.CloseIdleConnections()
	return nil
}

// wrapNetErr classifies a transport-level failure: the caller's own
// cancellation passes through untouched (retrying elsewhere would fail
// identically), everything else — refused connections, dropped streams —
// is a retryable ErrUnavailable.
func (r *Remote) wrapNetErr(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%w: %s: %v", ErrUnavailable, r.name, err)
}

// apiError mirrors the server's JSON error body.
type apiError struct {
	Error string `json:"error"`
}

// statusErr maps a non-200 response onto the typed error taxonomy.
// notFound names the sentinel a 404 means for this endpoint (unknown
// workload for runs, unknown experiment for artifacts).
func (r *Remote) statusErr(resp *http.Response, notFound error) error {
	var body apiError
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &body) != nil || body.Error == "" {
		body.Error = strings.TrimSpace(string(data))
		if body.Error == "" {
			body.Error = resp.Status
		}
	}
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		return fmt.Errorf("%w: %s: %s", lab.ErrInvalid, r.name, body.Error)
	case resp.StatusCode == http.StatusNotFound:
		return fmt.Errorf("%w: %s: %s", notFound, r.name, body.Error)
	case resp.StatusCode == http.StatusServiceUnavailable:
		return fmt.Errorf("%w: %s: %s", ErrOverloaded, r.name, body.Error)
	default:
		return fmt.Errorf("%w: %s: status %d: %s", ErrBackend, r.name, resp.StatusCode, body.Error)
	}
}

func (r *Remote) postJSON(ctx context.Context, path string, payload any) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		data, err := json.Marshal(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", lab.ErrInvalid, err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrBackend, r.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if r.priority != "" {
		req.Header.Set(lab.PriorityHeader, r.priority)
	}
	return r.hc.Do(req)
}

// streamLine is the client's view of one NDJSON response line; Result
// stays raw until the terminal line's concrete type is known.
type streamLine struct {
	Event  string          `json:"event"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// readStream consumes an NDJSON response until its terminal line and
// decodes the terminal payload into out, draining the progress lines
// before it. A stream that ends without a terminal line means the
// backend died mid-request, which is retryable. The line buffer starts
// at bufio's default size and grows only for a line that needs it, up
// to 16 MiB (a longer line is bufio.ErrTooLong, also retryable): a run
// result is under a kilobyte, and a buffer preallocated for long lines
// would be allocated and zeroed on every request.
func (r *Remote) readStream(ctx context.Context, body io.Reader, out any) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			// A connection cut mid-line arrives as a partial trailing
			// token: that is a died-backend signal (retryable), not a
			// protocol violation. Only a malformed line with more data
			// behind it means the backend is actually speaking garbage.
			if !sc.Scan() {
				if serr := sc.Err(); serr != nil {
					return r.wrapNetErr(ctx, serr)
				}
				return fmt.Errorf("%w: %s: stream cut mid-line", ErrUnavailable, r.name)
			}
			return fmt.Errorf("%w: %s: malformed stream line: %v", ErrBackend, r.name, err)
		}
		switch line.Event {
		case "result":
			if err := json.Unmarshal(line.Result, out); err != nil {
				return fmt.Errorf("%w: %s: malformed result: %v", ErrBackend, r.name, err)
			}
			return nil
		case "error":
			// Post-validation server-side failures are infrastructure
			// faults from the client's perspective (validation errors were
			// rejected before the stream committed to 200).
			return fmt.Errorf("%w: %s: %s", ErrBackend, r.name, line.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return r.wrapNetErr(ctx, err)
	}
	return fmt.Errorf("%w: %s: stream ended without a result", ErrUnavailable, r.name)
}

// Run executes one simulation on the backend through POST
// /v1/runs?stream=1 and returns the terminal result.
func (r *Remote) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	resp, err := r.postJSON(ctx, "/v1/runs?stream=1", req)
	if err != nil {
		return nil, r.wrapNetErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, r.statusErr(resp, lab.ErrUnknownWorkload)
	}
	var res lab.RunResult
	if err := r.readStream(ctx, resp.Body, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Experiment regenerates one artifact through POST /v1/experiments/{id}.
// The body is the server's WriteJSON rendering, which round-trips into an
// identical Report — text/JSON/CSV output from a remote report is
// byte-identical to a local run at the same budget.
func (r *Remote) Experiment(ctx context.Context, id string) (*lab.Report, error) {
	resp, err := r.postJSON(ctx, "/v1/experiments/"+url.PathEscape(id), nil)
	if err != nil {
		return nil, r.wrapNetErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, r.statusErr(resp, lab.ErrUnknownExperiment)
	}
	var rep lab.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, r.wrapNetErr(ctx, err)
	}
	return &rep, nil
}

// Health fetches the backend's /v1/healthz body (liveness plus the
// advertised default budget, which the CLI verifies before distributing
// experiments — experiments run at the server's budget).
func (r *Remote) Health(ctx context.Context) (lab.Health, error) {
	var h lab.Health
	err := r.getJSON(ctx, "/v1/healthz", &h)
	return h, err
}

// Stats fetches the backend's /v1/stats body: admission occupancy and
// capacity plus cache counters, the real-load signal the pool folds into
// least-loaded routing.
func (r *Remote) Stats(ctx context.Context) (lab.Stats, error) {
	var s lab.Stats
	err := r.getJSON(ctx, "/v1/stats", &s)
	return s, err
}

func (r *Remote) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return fmt.Errorf("%w: %s: %v", ErrBackend, r.name, err)
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return r.wrapNetErr(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r.statusErr(resp, ErrBackend)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return r.wrapNetErr(ctx, err)
	}
	return nil
}
