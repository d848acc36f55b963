package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"r3dla/internal/faultinject"
	"r3dla/internal/lab"
)

// streamHandler serves a healthy NDJSON run response (progress + result).
func streamHandler(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fmt.Fprintln(w, `{"event":"prep","workload":"mcf"}`)
	fmt.Fprintln(w, `{"event":"run","workload":"mcf","key":"k"}`)
	fmt.Fprintln(w, `{"event":"result","result":{"workload":"mcf","config":"k","budget":100,"ipc":1.25,"cycles":80,"committed":100,"reboots":0,"boq_wrong":0,"l1d_mpki":0.5,"dram_traffic":64}}`)
}

// TestRemoteInjectedConnectFault: an armed connect error surfaces as a
// retryable ErrUnavailable — indistinguishable from a refused socket, so
// the pool's retry machinery handles it unchanged.
func TestRemoteInjectedConnectFault(t *testing.T) {
	p := faultinject.New(61)
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteConnect, Mode: faultinject.Error, Limit: 1})
	r := fakeServer(t, streamHandler, WithFaults(p))

	_, err := r.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if !Retryable(err) {
		t.Fatalf("injected connect fault %v not retryable", err)
	}
	// The fault budget is spent: the retry succeeds on the same Remote.
	if res, err := r.Run(context.Background(), testReq(100)); err != nil || res.IPC != 1.25 {
		t.Fatalf("post-fault request: res=%+v err=%v", res, err)
	}
}

// TestRemoteInjectedStreamCut: a mid-stream body cut (armed Drop) kills
// the response before its terminal line; the Remote must classify it as
// a retryable ErrUnavailable exactly like a dying backend.
func TestRemoteInjectedStreamCut(t *testing.T) {
	p := faultinject.New(62)
	// The healthy stream is ~3 lines; cut after 40 bytes, mid progress.
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteStream, Mode: faultinject.Drop, Drop: 40, Limit: 1})
	r := fakeServer(t, streamHandler, WithFaults(p))

	_, err := r.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
	if res, err := r.Run(context.Background(), testReq(100)); err != nil || res.Workload != "mcf" {
		t.Fatalf("post-fault request: res=%+v err=%v", res, err)
	}
}

// TestRemoteInjectedLatencySpike: an armed connect delay stalls the
// request but it still completes; the caller's cancellation cuts the
// stall short.
func TestRemoteInjectedLatencySpike(t *testing.T) {
	p := faultinject.New(63)
	p.MustArm(faultinject.Policy{Point: faultinject.RemoteConnect, Mode: faultinject.Delay, Delay: 20 * time.Millisecond, Limit: 1})
	r := fakeServer(t, streamHandler, WithFaults(p))

	start := time.Now()
	if _, err := r.Run(context.Background(), testReq(100)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("latency spike did not stall: %v", elapsed)
	}

	p2 := faultinject.New(63)
	p2.MustArm(faultinject.Policy{Point: faultinject.RemoteConnect, Mode: faultinject.Delay, Delay: 10 * time.Second, Limit: 1})
	r2 := fakeServer(t, streamHandler, WithFaults(p2))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err := r2.Run(ctx, testReq(100))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled stall returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not cut the injected stall short")
	}
}

// TestPoolReoffersHardFaultedMembers: transient hard faults on every
// member must not fail a request while retry budget remains — the
// dispatcher re-offers hard-faulted members after a backoff instead of
// treating a reset connection as a permanently dead backend. (Before
// this, two transient faults could kill a request on a 2-member fleet
// no matter how large the retry budget was.)
func TestPoolReoffersHardFaultedMembers(t *testing.T) {
	var calls atomic.Int64
	flaky := &fakeBackend{name: "flaky", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		if calls.Add(1) <= 2 {
			return nil, fmt.Errorf("%w: connection reset", ErrUnavailable)
		}
		return okRun("flaky")(ctx, req)
	}}
	p := newTestPool(t, []Backend{flaky}, WithRetries(4))
	res, err := p.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatalf("request failed despite remaining retry budget: %v", err)
	}
	if res.Config != "flaky" {
		t.Fatalf("unexpected result %+v", res)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend saw %d calls, want 3 (2 faults + 1 success)", got)
	}

	// The budget still bounds the loop: a member that never recovers
	// exhausts the retries and surfaces its real error.
	dead := &fakeBackend{name: "dead", run: func(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
		return nil, fmt.Errorf("%w: connection reset", ErrUnavailable)
	}}
	p2 := newTestPool(t, []Backend{dead}, WithRetries(3))
	if _, err := p2.Run(context.Background(), testReq(101)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("dead backend: got %v, want ErrUnavailable", err)
	}
	if got := dead.calls.Load(); got > 3 {
		t.Fatalf("dead backend saw %d calls; retry budget 3 did not bound the loop", got)
	}
}

// TestRemoteOwnsBoundedTransport pins the satellite fix: a plain
// NewRemote must NOT ride http.DefaultClient — it owns a transport with
// every limit pinned.
func TestRemoteOwnsBoundedTransport(t *testing.T) {
	r, err := NewRemote("127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.hc == http.DefaultClient {
		t.Fatal("Remote inherited http.DefaultClient")
	}
	tr := r.tr
	if tr == nil {
		t.Fatal("Remote does not own its transport")
	}
	if tr.MaxIdleConnsPerHost != 32 || tr.MaxIdleConns != 128 {
		t.Fatalf("idle-conn limits: perHost=%d total=%d", tr.MaxIdleConnsPerHost, tr.MaxIdleConns)
	}
	if tr.TLSHandshakeTimeout != 10*time.Second {
		t.Fatalf("TLS handshake timeout %v", tr.TLSHandshakeTimeout)
	}
	if tr.ResponseHeaderTimeout != 5*time.Minute {
		t.Fatalf("response header timeout %v", tr.ResponseHeaderTimeout)
	}
	if tr.IdleConnTimeout != 90*time.Second {
		t.Fatalf("idle conn timeout %v", tr.IdleConnTimeout)
	}
	if tr.DialContext == nil {
		t.Fatal("no bounded dialer")
	}
}
