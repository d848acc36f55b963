package lab

import (
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
