package fleet

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"r3dla/internal/lab"
)

// fakeServer serves a scripted handler and returns a Remote pointed at it.
func fakeServer(t *testing.T, h http.HandlerFunc, opts ...RemoteOption) *Remote {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	r, err := NewRemote(srv.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRemoteErrorMapping pins the wire-to-typed-error taxonomy: the
// lab's sentinels survive the HTTP round-trip, and infrastructure faults
// classify as retryable.
func TestRemoteErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		name      string
		status    int
		body      string
		want      error
		retryable bool
	}{
		{"validation 400", http.StatusBadRequest, `{"error":"lab: invalid request: budget"}`, lab.ErrInvalid, false},
		{"unknown 404", http.StatusNotFound, `{"error":"lab: unknown workload: \"nope\""}`, lab.ErrUnknownWorkload, false},
		{"admission 503", http.StatusServiceUnavailable, `{"error":"server at capacity"}`, ErrOverloaded, true},
		{"fault 500", http.StatusInternalServerError, `boom`, ErrBackend, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
				w.WriteHeader(tc.status)
				fmt.Fprint(w, tc.body)
			})
			_, err := r.Run(context.Background(), testReq(100))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got %v, want %v", err, tc.want)
			}
			if Retryable(err) != tc.retryable {
				t.Fatalf("Retryable(%v) = %v, want %v", err, Retryable(err), tc.retryable)
			}
		})
	}
}

// TestRemoteExperimentNotFound: 404 on the experiment endpoint maps to
// the experiment sentinel, not the workload one.
func TestRemoteExperimentNotFound(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"lab: unknown experiment"}`)
	})
	if _, err := r.Experiment(context.Background(), "nope"); !errors.Is(err, lab.ErrUnknownExperiment) {
		t.Fatalf("got %v, want ErrUnknownExperiment", err)
	}
}

// TestRemoteConnectionRefused: a dead address is retryable.
func TestRemoteConnectionRefused(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.URL
	srv.Close()
	r, err := NewRemote(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), testReq(100)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

// The canned run-stream bodies of the tests below; FuzzReadStream seeds
// from them too.
const (
	// streamOK is a whole run: progress lines, then the result.
	streamOK = `{"event":"prep","workload":"mcf"}` + "\n" +
		`{"event":"run","workload":"mcf","key":"k"}` + "\n" +
		`{"event":"result","result":{"workload":"mcf","config":"k","budget":100,"ipc":1.25,"cycles":80,"committed":100,"reboots":0,"boq_wrong":0,"l1d_mpki":0.5,"dram_traffic":64}}` + "\n"
	// streamError ends in a server-side error line.
	streamError = `{"event":"error","error":"simulation exploded"}` + "\n"
	// streamTruncated ends before its terminal line.
	streamTruncated = `{"event":"prep","workload":"mcf"}` + "\n"
)

// TestRemoteRunStream parses the NDJSON run protocol: progress lines are
// drained, the terminal result line carries the payload.
func TestRemoteRunStream(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("stream") == "" {
			t.Error("client did not request the NDJSON stream")
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, streamOK)
	})
	res, err := r.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mcf" || res.IPC != 1.25 || res.Cycles != 80 {
		t.Fatalf("decoded result wrong: %+v", res)
	}
}

// TestRemoteRunStreamTerminalError: a server-side error line is a
// retryable backend fault (validation was rejected before streaming).
func TestRemoteRunStreamTerminalError(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprint(w, streamError)
	})
	_, err := r.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrBackend) {
		t.Fatalf("got %v, want ErrBackend", err)
	}
}

// TestRemoteRunStreamTruncated: a stream that dies before its terminal
// line (a killed backend) is retryable, so the pool reruns the cell
// elsewhere.
func TestRemoteRunStreamTruncated(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprint(w, streamTruncated)
		// Connection ends here — no terminal line.
	})
	_, err := r.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("got %v, want ErrUnavailable", err)
	}
}

// writeResultLine writes one result line whose config string is pad
// bytes long.
func writeResultLine(w io.Writer, pad int) {
	fmt.Fprintf(w, `{"event":"result","result":{"workload":"mcf","config":"%s"}}`+"\n", strings.Repeat("k", pad))
}

// TestRemoteRunStreamLongLine: a result line longer than any run result
// (2 MiB here) still decodes; the line buffer grows to fit it.
func TestRemoteRunStreamLongLine(t *testing.T) {
	const pad = 2 << 20
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		writeResultLine(w, pad)
	})
	res, err := r.Run(context.Background(), testReq(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "mcf" || len(res.Config) != pad {
		t.Fatalf("decoded %q with a %d-byte config, want mcf and %d", res.Workload, len(res.Config), pad)
	}
}

// TestRemoteRunStreamLineCap: a line over the 16 MiB cap fails the
// request as retryable ErrUnavailable (bufio.ErrTooLong), so a runaway
// backend cannot make the client buffer without bound.
func TestRemoteRunStreamLineCap(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		writeResultLine(w, 17<<20)
	})
	_, err := r.Run(context.Background(), testReq(100))
	if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), bufio.ErrTooLong.Error()) {
		t.Fatalf("got %v, want ErrUnavailable from bufio.ErrTooLong", err)
	}
}

// TestRemoteRequestTimeout: a request lasts as long as its caller's
// context, and the caller's own cancellation surfaces as itself, not as
// a retryable fault (retrying elsewhere would fail identically).
func TestRemoteRequestTimeout(t *testing.T) {
	blocked := make(chan struct{})
	h := func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-blocked:
		case <-req.Context().Done():
		}
	}
	defer close(blocked)
	slow := fakeServer(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := slow.Run(ctx, testReq(100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("caller cancel: got %v, want context.Canceled", err)
	}
}

// TestRemoteStats decodes the /v1/stats body the router balances on.
func TestRemoteStats(t *testing.T) {
	r := fakeServer(t, func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/stats" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, `{"inflight":3,"capacity":64,"max_budget":10000000,"budget":150000,"completed":9,"canceled":1,"runs":7}`)
	})
	st, err := r.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Inflight != 3 || st.Capacity != 64 || st.Runs != 7 {
		t.Fatalf("decoded stats wrong: %+v", st)
	}
}

// TestNewRemoteValidation rejects unusable addresses up front.
func TestNewRemoteValidation(t *testing.T) {
	if _, err := NewRemote("://bad"); !errors.Is(err, lab.ErrInvalid) {
		t.Fatalf("bad address: %v", err)
	}
}
