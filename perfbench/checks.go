package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"r3dla/internal/lab"
)

// goldenBudget is the budget the committed RunResult goldens were
// recorded at (internal/lab/golden_run_test.go).
const goldenBudget = 4000

// checkGoldens re-runs every committed RunResult golden through a Lab of
// the benchmark's own and compares the service encoding byte for byte.
// Each golden is one operation; a mismatch fails it. A missing golden
// directory is an error: the benchmark is not running in a checkout.
func checkGoldens(ctx context.Context, e *env, ck *checker) error {
	paths, err := filepath.Glob(filepath.Join(e.root, "internal", "lab", "testdata", "runs", "*_*.json"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no RunResult goldens under %s: run from the root of a checkout", e.root)
	}
	l, err := lab.New(lab.WithBudget(goldenBudget), lab.WithJobs(e.jobs))
	if err != nil {
		return err
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		base := strings.TrimSuffix(filepath.Base(path), ".json")
		i := strings.LastIndex(base, "_")
		w, preset := base[:i], base[i+1:]
		res, err := l.Run(ctx, lab.RunRequest{Workload: w, Config: lab.ConfigSpec{Preset: preset}, Budget: goldenBudget})
		if err == nil && !bytes.Equal(canonicalJSON(res), want) {
			err = fmt.Errorf("golden %s: result differs from the committed bytes", base)
		}
		ck.record(err)
	}
	return nil
}

// canonicalJSON renders a RunResult exactly as the service serializes it.
func canonicalJSON(res *lab.RunResult) []byte {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		panic(err) // RunResult holds only plain values
	}
	return append(b, '\n')
}

// checkCell verifies a cycle-accurate result committed its whole budget
// without the pipeline declaring a deadlock.
func checkCell(key string, res *lab.RunResult, budget uint64) error {
	switch {
	case res.Deadlocked:
		return fmt.Errorf("cell %s deadlocked", key)
	case res.Committed < budget:
		return fmt.Errorf("cell %s committed %d of %d instructions", key, res.Committed, budget)
	}
	return nil
}

// freshGuard checks a count the workload fixes in advance: simulations
// executed against fresh cells asked for, store hits against hot
// requests, and the like. A shortfall means work came from a cache it
// was meant to bypass; an excess, that work was repeated or retried.
func freshGuard(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s: %d, want %d", what, got, want)
	}
	return nil
}

// mismatch is how far an exact count is from the value it must have:
// 0 when right, and larger whichever way it moved. Per-layer counts
// that must not change are reported this way, so that a tool reading
// "lower is better" never scores a changed count as a gain.
func mismatch(got, want int) float64 {
	if got > want {
		return float64(got - want)
	}
	return float64(want - got)
}
