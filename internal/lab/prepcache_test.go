package lab

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestPrepCacheColdWarmByteIdentity pins the persistent prep cache to the
// byte-identity contract: a Lab with a cold cache, a second Lab warming
// from the first one's entries, and a third Lab recovering from a
// corrupted entry must all produce RunResults byte-identical to the
// committed seed-core goldens.
func TestPrepCacheColdWarmByteIdentity(t *testing.T) {
	dir := t.TempDir()
	golden, err := os.ReadFile(filepath.Join("testdata", "runs", "mcf_r3.json"))
	if err != nil {
		t.Fatal(err)
	}

	runOnce := func(t *testing.T, phase string) {
		t.Helper()
		l, err := New(WithBudget(goldenBudget), WithPrepCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		res, err := l.Run(context.Background(), RunRequest{
			Workload: "mcf",
			Config:   ConfigSpec{Preset: "r3"},
			Budget:   goldenBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := goldenRunJSON(t, res); !bytes.Equal(got, golden) {
			t.Errorf("%s run drifted from the golden.\n--- want ---\n%s--- got ---\n%s",
				phase, golden, got)
		}
	}

	runOnce(t, "cold-cache")

	entries, err := filepath.Glob(filepath.Join(dir, "*.res"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cold run should persist exactly one prep entry, got %v (err %v)", entries, err)
	}

	runOnce(t, "warm-cache")

	// A torn entry must be treated as a miss: the third Lab regenerates
	// and still matches the golden, then rewrites a fresh entry.
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entries[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	runOnce(t, "corrupt-cache-recovery")
	// The recovery run rewrites a complete entry. Byte-comparing it to the
	// original would be flaky (gob map ordering), so just check it grew
	// back past the truncation point.
	if again, err := os.ReadFile(entries[0]); err != nil || len(again) <= len(raw)/2 {
		t.Errorf("recovery run should rewrite the torn entry (err %v, %d bytes)", err, len(again))
	}
}
