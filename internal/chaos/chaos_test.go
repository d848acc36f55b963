package chaos

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the soak golden under testdata/")

// TestSoakPassesAndReplays is the harness's own soak: one full chaos run
// must hold every invariant, and a second run with the same seed must
// render byte-identical report output — the replayability contract the
// CI smoke compares across processes. The report must also match the
// committed testdata/soak@seed7.txt, which `r3dla chaos -seed 7 -q`
// prints and -update re-records.
func TestSoakPassesAndReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("full soak in -short mode")
	}
	run := func() []byte {
		t.Helper()
		rep, err := Soak(context.Background(), Config{Seed: 7, Kills: 1, Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Pass() {
			var b bytes.Buffer
			rep.Render(&b)
			t.Fatalf("soak failed invariants:\n%s", b.String())
		}
		var b bytes.Buffer
		if err := rep.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := run()
	if second := run(); !bytes.Equal(first, second) {
		t.Fatalf("same seed rendered different reports:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	if !strings.Contains(string(first), "result: PASS") {
		t.Fatalf("report missing verdict:\n%s", first)
	}
	golden := filepath.Join("testdata", "soak@seed7.txt")
	if *update {
		if err := os.WriteFile(golden, first, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/chaos -update`): %v", err)
	}
	if !bytes.Equal(first, want) {
		t.Fatalf("seed-7 report drifted from %s:\n--- want ---\n%s--- got ---\n%s", golden, want, first)
	}
}

// TestSoakRejectsLoneKilledServer: kills require a survivor.
func TestSoakRejectsLoneKilledServer(t *testing.T) {
	if _, err := Soak(context.Background(), Config{Seed: 1, Servers: 1, Kills: 1}); err == nil {
		t.Fatal("single-server soak with kills was accepted")
	}
}

// TestReportRender pins the report wire format: a failing invariant
// renders FAIL with its detail and flips the verdict.
func TestReportRender(t *testing.T) {
	rep := &Report{
		Seed: 3, Servers: 2, Budget: 2000,
		Workloads: []string{"mcf", "libq"},
		Schedule:  []string{"resultstore.put torn prob=1 limit=1"},
		Invariants: []Invariant{
			{Name: "sweep-byte-identity", Pass: true},
			{Name: "goroutine-leak", Pass: false, Detail: "3 goroutines above the pre-soak count after teardown"},
		},
	}
	if rep.Pass() {
		t.Fatal("report with a failing invariant passed")
	}
	var b bytes.Buffer
	if err := rep.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"seed:      3",
		"workloads: mcf,libq",
		"  resultstore.put torn prob=1 limit=1",
		"sweep-byte-identity    PASS",
		"goroutine-leak         FAIL",
		"3 goroutines above the pre-soak count",
		"result: FAIL",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
