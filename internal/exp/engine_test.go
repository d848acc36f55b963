package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"r3dla/internal/core"
)

// engineIDs is a mix of experiments that share prepared workloads and
// memoized runs, small enough to run at a reduced budget under -race.
var engineIDs = []string{"tab1", "fig15", "fig13c", "fig5"}

// render concatenates the text rendering of a result set.
func render(t *testing.T, results []Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		b.WriteString(r.Report.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelMatchesSerial asserts the engine's central contract: the
// rendered output of a concurrent run is byte-identical to the serial
// (-jobs 1) run, and preparation executed exactly once per workload.
func TestParallelMatchesSerial(t *testing.T) {
	serial := NewContext(6_000)
	serial.Jobs = 1
	sres, err := Run(context.Background(), serial, engineIDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := render(t, sres)

	parallel := NewContext(6_000)
	parallel.Jobs = 8
	pres, err := Run(context.Background(), parallel, engineIDs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := render(t, pres)

	if got != want {
		t.Fatalf("parallel output differs from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	for _, name := range SuiteNames("all") {
		if n := parallel.PrepCount(name); n > 1 {
			t.Errorf("workload %s prepared %d times, want at most 1", name, n)
		}
	}
	// fig15/fig13c cover every spec workload; those must have prepared.
	if n := parallel.PrepCount("mcf"); n != 1 {
		t.Errorf("mcf prepared %d times, want 1", n)
	}
}

// TestRunCachedSingleflight hammers one (workload, key) pair from many
// goroutines: the simulation must execute once and every caller must see
// the same *Results.
func TestRunCachedSingleflight(t *testing.T) {
	c := NewContext(6_000)
	c.Jobs = 8
	var runs int
	var mu sync.Mutex
	c.Progress = func(ev Event) {
		if ev.Stage == "run" {
			mu.Lock()
			runs++
			mu.Unlock()
		}
	}
	p := c.Prep("bzip")
	const n = 16
	got := make([]any, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.RunCached(p, core.Options{Disable: true, WithBOP: true})
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatal("RunCached returned distinct results under concurrency")
		}
	}
	if runs != 1 {
		t.Fatalf("simulation ran %d times, want 1", runs)
	}
}

// TestTable2AndFig10ShareRuns: Table II and Fig. 10 both measure DLA and
// R3-DLA against BL+BOP on every workload. A run is named by its options,
// so on one Context the two drivers share those three cells per workload
// instead of simulating one set each.
func TestTable2AndFig10ShareRuns(t *testing.T) {
	c := NewContext(3_000)
	if _, err := Run(context.Background(), c, []string{"tab2", "fig10"}, nil); err != nil {
		t.Fatal(err)
	}
	if n, want := c.RunCount(), 3*len(SuiteNames("all")); n != want {
		t.Fatalf("tab2 + fig10 simulated %d cells, want %d (BL+BOP, DLA and R3-DLA per workload)", n, want)
	}
}

// TestOrderedDelivery asserts onResult sees results in id order even
// though experiments complete out of order.
func TestOrderedDelivery(t *testing.T) {
	c := NewContext(6_000)
	var order []string
	var mu sync.Mutex
	_, err := Run(context.Background(), c, engineIDs, func(r Result) {
		mu.Lock()
		order = append(order, r.ID)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(engineIDs) {
		t.Fatalf("delivered %d results, want %d", len(order), len(engineIDs))
	}
	for i, id := range engineIDs {
		if order[i] != id {
			t.Fatalf("delivery order %v, want %v", order, engineIDs)
		}
	}
}

// TestCancellation asserts a canceled context aborts the run with its
// error instead of hanging or panicking.
func TestCancellation(t *testing.T) {
	c := NewContext(6_000)
	c.Jobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: nothing should run
	results, err := Run(ctx, c, engineIDs, nil)
	if err == nil {
		t.Fatal("Run returned nil error on canceled context")
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("%s completed despite cancellation", r.ID)
		}
	}
	// A canceled run must not poison the memoization entries: reusing the
	// same Context with a live context recomputes and succeeds.
	results, err = Run(context.Background(), c, []string{"tab1", "fig5"}, nil)
	if err != nil {
		t.Fatalf("reuse after cancellation: %v", err)
	}
	for _, r := range results {
		if r.Err != nil || r.Report == nil {
			t.Fatalf("reuse after cancellation: %s: %v", r.ID, r.Err)
		}
	}
}

// TestCancellationMidRun cancels while experiments are in flight.
func TestCancellationMidRun(t *testing.T) {
	c := NewContext(6_000)
	c.Jobs = 2
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run(ctx, c, engineIDs, nil)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestUnknownExperiment asserts Run rejects bad ids up front.
func TestUnknownExperiment(t *testing.T) {
	if _, err := Run(context.Background(), NewContext(6_000), []string{"nope"}, nil); err == nil {
		t.Fatal("Run accepted an unknown experiment id")
	}
}

// TestReportSerialization checks the JSON and CSV forms carry the same
// rows as the text rendering.
func TestReportSerialization(t *testing.T) {
	c := NewContext(6_000)
	rep := Table1(c)
	rep.ID, rep.Title = "tab1", "Table I"

	var jbuf bytes.Buffer
	if err := rep.WriteJSON(&jbuf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jbuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "tab1" || len(back.Tables) != 1 {
		t.Fatalf("JSON roundtrip mangled report: %+v", back)
	}
	if len(back.Tables[0].Rows) != len(rep.Tables[0].Rows) {
		t.Fatal("JSON roundtrip dropped rows")
	}

	var cbuf bytes.Buffer
	if err := rep.WriteCSV(&cbuf); err != nil {
		t.Fatal(err)
	}
	csv := cbuf.String()
	if !strings.Contains(csv, "# Table I: system configuration") {
		t.Fatalf("CSV missing title comment:\n%s", csv)
	}
	if !strings.Contains(csv, "unit,configuration") {
		t.Fatalf("CSV missing header row:\n%s", csv)
	}
	if !strings.Contains(csv, "BOQ 512") {
		t.Fatalf("CSV missing data rows:\n%s", csv)
	}
}
