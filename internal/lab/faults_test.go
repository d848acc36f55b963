package lab

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"r3dla/internal/faultinject"
)

// TestServerInjectedShed: an armed Error policy on lab.server.run makes
// POST /v1/runs shed with 503 exactly like admission overload, so fleet
// clients exercise their normal backpressure path; once the fault budget
// is spent the same request succeeds.
func TestServerInjectedShed(t *testing.T) {
	p := faultinject.New(71)
	p.MustArm(faultinject.Policy{Point: faultinject.ServerRun, Mode: faultinject.Error, Limit: 1})
	srv, _ := newTestService(t, WithServerFaults(p))

	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":2000}`
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%s), want 503", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "injected shed") {
		t.Fatalf("shed body %q does not identify the injection", raw)
	}
	if got := p.Fires()[faultinject.ServerRun]; got != 1 {
		t.Fatalf("plane fired %d times, want 1", got)
	}

	// Fault budget spent: the retry goes through.
	resp, err = http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fault status %d, want 200", resp.StatusCode)
	}
}

// TestServerInjectedDelay: an armed Delay policy stalls the response
// (the slow-backend shape) but the request still completes.
func TestServerInjectedDelay(t *testing.T) {
	p := faultinject.New(72)
	p.MustArm(faultinject.Policy{Point: faultinject.ServerRun, Mode: faultinject.Delay, Delay: 30 * time.Millisecond, Limit: 1})
	srv, _ := newTestService(t, WithServerFaults(p))

	body := `{"workload":"mcf","config":{"preset":"dla"},"budget":2000}`
	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("injected delay did not stall the response: %v", elapsed)
	}
}

// TestLabWithFaultsReachesPrepCache: WithFaults must arm the plane on
// the Lab's prep cache regardless of option order — the injected load
// fault fires (proving the wiring) and reads as a silent miss, so the
// run still succeeds against a warm cache.
func TestLabWithFaultsReachesPrepCache(t *testing.T) {
	dir := t.TempDir()
	req := RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}, Budget: 2000}

	// Warm the cache with a fault-free Lab.
	warm, err := New(WithBudget(2000), WithPrepCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opts func(p *faultinject.Plane) []ClientOption
	}{
		{"faults-first", func(p *faultinject.Plane) []ClientOption {
			return []ClientOption{WithFaults(p), WithBudget(2000), WithPrepCache(dir)}
		}},
		{"faults-last", func(p *faultinject.Plane) []ClientOption {
			return []ClientOption{WithBudget(2000), WithPrepCache(dir), WithFaults(p)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := faultinject.New(73)
			p.MustArm(faultinject.Policy{Point: faultinject.PrepCacheLoad, Mode: faultinject.Error, Limit: 1})
			l, err := New(tc.opts(p)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Run(context.Background(), req); err != nil {
				t.Fatalf("run with injected prep-cache miss failed: %v", err)
			}
			if got := p.Fires()[faultinject.PrepCacheLoad]; got != 1 {
				t.Fatalf("plane fired %d times, want 1 (WithFaults not threaded to the prep cache)", got)
			}
		})
	}
}

// TestLabWithFaultsWithoutPrepCache: arming faults on a Lab with no prep
// cache must not panic.
func TestLabWithFaultsWithoutPrepCache(t *testing.T) {
	p := faultinject.New(74)
	l, err := New(WithBudget(2000), WithFaults(p))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Run(context.Background(), RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}, Budget: 2000}); err != nil {
		t.Fatal(err)
	}
}
