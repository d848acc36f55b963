package lab

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateRunGoldens = flag.Bool("update", false,
	"rewrite RunResult golden files under testdata/runs/")

// goldenBudget keeps the golden grid cheap enough to run under -race in
// CI while still exercising reboots, recycling and the queue machinery.
const goldenBudget = 4000

// goldenGrid is the preset x workload matrix the byte-identity goldens
// pin. One workload per suite keeps the grid representative without
// making the -race run expensive.
var goldenGrid = struct {
	workloads []string
	presets   []string
}{
	workloads: []string{"mcf", "libq", "bfs", "rotate"},
	presets:   []string{"baseline", "dla", "r3"},
}

// goldenRunJSON renders a RunResult exactly as the service serializes it.
func goldenRunJSON(t *testing.T, res *RunResult) []byte {
	t.Helper()
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestRunResultGoldens asserts that the simulation core produces output
// byte-identical to the committed goldens recorded from the seed core.
// Any optimization of the cycle loop, the queues, skeleton generation or
// workload setup must keep every one of these bytes unchanged — this is
// the contract that makes aggressive optimization safe.
func TestRunResultGoldens(t *testing.T) {
	l, err := New(WithBudget(goldenBudget))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range goldenGrid.workloads {
		for _, preset := range goldenGrid.presets {
			w, preset := w, preset
			t.Run(w+"_"+preset, func(t *testing.T) {
				t.Parallel()
				res, err := l.Run(context.Background(), RunRequest{
					Workload: w,
					Config:   ConfigSpec{Preset: preset},
					Budget:   goldenBudget,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := goldenRunJSON(t, res)
				path := filepath.Join("testdata", "runs", fmt.Sprintf("%s_%s.json", w, preset))
				if *updateRunGoldens {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (run `go test ./internal/lab -run TestRunResultGoldens -update`): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s drifted from the seed-core golden.\n--- want ---\n%s--- got ---\n%s",
						w, preset, want, got)
				}
			})
		}
	}
}
