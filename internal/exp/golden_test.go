package exp

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"r3dla/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenReport is a hand-built representative report: two tables (so the
// between-table separators are covered), a suite-summary shape and a
// per-bench shape, cells with the brackets/percent/dash characters the
// real drivers emit.
func goldenReport() *Report {
	t1 := &stats.Table{
		Title:  "Fig. 9-a: speedup over BL+BOP (geomean [min-max])",
		Header: []string{"config", "spec", "crono", "star", "npb", "all"},
	}
	t1.AddRow("BL (noPF)", "0.81 [0.60-0.97]", "0.92 [0.85-0.99]", "0.88 [0.70-1.00]", "0.86 [0.74-0.95]", "0.86 [0.60-1.00]")
	t1.AddRow("DLA", "1.21 [0.99-1.63]", "1.18 [1.07-1.32]", "1.10 [1.00-1.29]", "1.16 [1.04-1.36]", "1.16 [0.99-1.63]")
	t1.AddRow("R3-DLA", "1.29 [1.01-1.87]", "1.24 [1.10-1.41]", "1.14 [1.01-1.35]", "1.23 [1.08-1.47]", "1.23 [1.01-1.87]")

	t2 := &stats.Table{
		Title:  "Fig. 15: fraction of instructions under each skeleton version (online recycle)",
		Header: []string{"bench", "a", "b", "c", "d", "e", "f"},
	}
	t2.AddRow("mcf", "0.42", "0.13", "0.00", "0.45", "0.00", "0.00")
	t2.AddRow("libq", "1.00", "0.00", "0.00", "0.00", "0.00", "0.00")
	t2.AddRow("gobmk", "0.25", "0.25", "0.25", "0.00", "0.25", "-")

	rep := NewReport(t1, t2)
	rep.ID, rep.Title = "fig9a", "Fig. 9-a: bottom-line speedups per suite"
	return rep
}

// checkGolden compares got against testdata/<name>, rewriting the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/exp -update`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- want ---\n%s\n--- got ---\n%s", name, want, got)
	}
}

// TestReportGoldenText pins the fixed-width text rendering the CLI
// prints to stdout.
func TestReportGoldenText(t *testing.T) {
	checkGolden(t, "report.txt", []byte(goldenReport().String()))
}

// TestReportGoldenJSON pins the WriteJSON document — the exact bytes
// `r3dla -format json` writes and the r3dlad service serves from
// POST /v1/experiments/{id}.
func TestReportGoldenJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.json", buf.Bytes())
}

// TestReportGoldenCSV pins the RFC-4180 rendering of `-format csv`.
func TestReportGoldenCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.csv", buf.Bytes())
}

// TestExperimentsGolden pins the numbers every experiment prints: the
// whole registry runs on one Context at budget 2,000, in registry order,
// and the concatenated text reports must match
// testdata/experiments@2000.txt byte for byte. The file holds exactly
// what `r3dla -exp all -budget 2000 -q` prints. The drivers name their
// runs by options alone, so the registry simulates each of its 679
// distinct (workload, options, budget) cells once: 22 configurations,
// Fig. 9-b's 3 comparators and Fig. 11's SMT pair on each of the 25
// workloads, Fig. 13-b's 25 training-input runs, Fig. 14's occupancy run,
// and the 3 Appendix-B frontend runs of Fig. 5 and Fig. 14 on gobmk.
func TestExperimentsGolden(t *testing.T) {
	c := NewContext(2_000)
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	res, err := Run(context.Background(), c, ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "experiments@2000.txt", []byte(render(t, res)))
	if n, want := c.RunCount(), 27*len(SuiteNames("all"))+1+3; n != want {
		t.Errorf("the registry simulated %d memoized cells, want %d", n, want)
	}
}
