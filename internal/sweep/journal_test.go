package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"

	"r3dla/internal/faultinject"
)

// TestJournalQuarantineMiddleLines is the quarantine contract: corrupt
// *middle* lines (not just a torn tail) are moved to the quarantine
// file, the journal is rewritten with only intact lines, the affected
// cells re-run, and the resumed output is byte-identical to an
// uninterrupted sweep.
func TestJournalQuarantineMiddleLines(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.ndjson")

	if _, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("journal has %d lines, want 8", len(lines))
	}

	// Corrupt two middle lines in place — a NUL smashed into the JSON and
	// a bit flip that destroys the framing — while the tail stays intact.
	corrupt2 := []byte(lines[2])
	corrupt2[len(corrupt2)/2] = 0x00
	lines[2] = string(corrupt2)
	lines[5] = strings.Replace(lines[5], `"key"`, `"kXy"`, 1) // decodes but Key==""
	if err := os.WriteFile(journal, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var warnMu sync.Mutex
	var warns []string
	l := newTestLab(t, 4)
	res, err := Run(context.Background(), l, testSpec(), Options{
		Journal: journal, Resume: true,
		Warn: func(format string, args ...any) {
			warnMu.Lock()
			warns = append(warns, fmt.Sprintf(format, args...))
			warnMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 6 || res.Quarantined != 2 {
		t.Fatalf("resumed=%d quarantined=%d, want 6 and 2", res.Resumed, res.Quarantined)
	}
	if l.RunCount() != 2 {
		t.Fatalf("quarantine recovery executed %d simulations, want 2", l.RunCount())
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "quarantined 2") {
		t.Fatalf("warn log %q, want one quarantine notice", warns)
	}

	// The damaged lines landed in the quarantine file, none of them
	// decodable as a journal line.
	qdata, err := os.ReadFile(journal + quarantineExt)
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	qlines := strings.Split(strings.TrimSuffix(string(qdata), "\n"), "\n")
	if len(qlines) != 2 {
		t.Fatalf("quarantine holds %d lines, want 2", len(qlines))
	}
	for _, q := range qlines {
		var jl journalLine
		if err := json.Unmarshal([]byte(q), &jl); err == nil && jl.Key != "" && jl.Result != nil {
			t.Fatalf("quarantine holds a healthy line: %q", q)
		}
	}

	// The rewritten journal (plus the re-run appends) is fully parseable:
	// nothing damaged survived in it.
	lj, err := loadJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lj.bad) != 0 {
		t.Fatalf("rewritten journal still holds %d damaged lines", len(lj.bad))
	}
	if len(lj.results) != 8 {
		t.Fatalf("rewritten journal has %d cells, want 8", len(lj.results))
	}

	// Byte-identity: the quarantined resume equals a clean run.
	full, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, res), renderAll(t, full)) {
		t.Fatal("quarantined resume output differs from clean run")
	}

	// A second resume restores everything — the quarantine healed.
	l2 := newTestLab(t, 4)
	again, err := Run(context.Background(), l2, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != 8 || again.Quarantined != 0 || l2.RunCount() != 0 {
		t.Fatalf("post-quarantine resume: resumed=%d quarantined=%d runs=%d",
			again.Resumed, again.Quarantined, l2.RunCount())
	}
}

// TestJournalQuarantinesOverlongLine: a damaged line longer than any
// line buffer — a 2 MiB run of NULs a crash left in a block — is
// quarantined like a short one instead of making the journal unloadable,
// and every intact cell around it resumes.
func TestJournalQuarantinesOverlongLine(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.ndjson")
	if _, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	damaged := strings.Repeat("\x00", 2<<20) + "\n"
	if err := os.WriteFile(journal, []byte(strings.Join(slices.Insert(lines, 4, damaged), "")), 0o644); err != nil {
		t.Fatal(err)
	}

	l := newTestLab(t, 4)
	res, err := Run(context.Background(), l, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 8 || res.Quarantined != 1 || l.RunCount() != 0 {
		t.Fatalf("resumed=%d quarantined=%d runs=%d, want 8, 1 and 0", res.Resumed, res.Quarantined, l.RunCount())
	}
	q, err := os.ReadFile(journal + quarantineExt)
	if err != nil {
		t.Fatal(err)
	}
	if string(q) != damaged {
		t.Fatalf("quarantine holds %d bytes, want the %d-byte damaged line", len(q), len(damaged))
	}
}

// TestJournalInjectedAppendDamage drives the same recovery through the
// fault plane: seeded torn and corrupt appends damage the journal as it
// is written, and the next resume quarantines and heals — the
// crash-before-sync test for the append path.
func TestJournalInjectedAppendDamage(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.ndjson")

	p := faultinject.New(51)
	p.MustArm(faultinject.Policy{Point: faultinject.JournalAppend, Mode: faultinject.Torn, Limit: 1, After: 2})
	p.MustArm(faultinject.Policy{Point: faultinject.JournalAppend, Mode: faultinject.Corrupt, Limit: 1, After: 4})

	if _, err := Run(context.Background(), newTestLab(t, 1), testSpec(), Options{
		Journal: journal, Faults: p,
	}); err != nil {
		t.Fatal(err) // torn/corrupt appends are silent; the sweep completes
	}
	if got := p.Fires()[faultinject.JournalAppend]; got != 2 {
		t.Fatalf("append faults fired %d times, want 2", got)
	}

	l := newTestLab(t, 4)
	res, err := Run(context.Background(), l, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// The torn line may vanish entirely (truncated to nothing) or leave a
	// fragment; the corrupt line always survives as damage. Either way
	// every missing cell re-runs and the output matches a clean run.
	if res.Resumed+l.RunCount() != 8 {
		t.Fatalf("resumed %d + reran %d != 8 cells", res.Resumed, l.RunCount())
	}
	if l.RunCount() < 1 {
		t.Fatal("injected damage did not force any re-run")
	}
	full, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, res), renderAll(t, full)) {
		t.Fatal("resume after injected append damage differs from clean run")
	}
}

// TestJournalAppendENOSPCAbortsSweep: a hard append failure (disk full)
// aborts the sweep with the injected error — checkpoints must never be
// silently lost — and a later resume completes the work.
func TestJournalAppendENOSPCAbortsSweep(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.ndjson")

	p := faultinject.New(52)
	p.MustArm(faultinject.Policy{Point: faultinject.JournalAppend, Mode: faultinject.ENOSPC, After: 3, Limit: 1})

	_, err := Run(context.Background(), newTestLab(t, 1), testSpec(), Options{
		Journal: journal, Faults: p,
	})
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("sweep error %v, want injected ENOSPC", err)
	}

	l := newTestLab(t, 4)
	res, err := Run(context.Background(), l, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed < 3 {
		t.Fatalf("resumed %d cells, want the >=3 checkpointed before ENOSPC", res.Resumed)
	}
	full, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, res), renderAll(t, full)) {
		t.Fatal("resume after ENOSPC differs from clean run")
	}
}

// TestJournalLoadFaultSurfaces: an injected load failure is an error (a
// resume that can't read its journal must not silently start over).
func TestJournalLoadFaultSurfaces(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.ndjson")
	if _, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	p := faultinject.New(53)
	p.MustArm(faultinject.Policy{Point: faultinject.JournalLoad, Mode: faultinject.Error, Limit: 1})
	_, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{
		Journal: journal, Resume: true, Faults: p,
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("resume with injected load fault: %v, want ErrInjected", err)
	}
}
