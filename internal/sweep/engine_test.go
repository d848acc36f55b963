package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"r3dla/internal/lab"
)

// testSpec is the grid the engine tests share: small enough to run under
// -race, wide enough to exercise two axes and two workloads.
func testSpec() Spec {
	return Spec{
		Workloads: []string{"mcf", "libq"},
		Budget:    2000,
		Axes: Axes{
			Preset:  []string{"dla", "r3"},
			BOQSize: []int{64, 512},
		},
	}
}

func newTestLab(t *testing.T, jobs int) *lab.Lab {
	t.Helper()
	l, err := lab.New(lab.WithBudget(2000), lab.WithJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// renderAll renders a sweep result every way the CLI surfaces it.
func renderAll(t *testing.T, r *Result) []byte {
	t.Helper()
	rep := r.Report()
	var b bytes.Buffer
	b.WriteString(rep.String())
	if err := rep.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSweepDeterministicAcrossJobs mirrors the engine's `-exp all`
// guarantee for sweeps: the rendered output is byte-identical for one
// worker and many, regardless of scheduling (run under -race in CI).
func TestSweepDeterministicAcrossJobs(t *testing.T) {
	serial, err := Run(context.Background(), newTestLab(t, 1), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), newTestLab(t, 8), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := renderAll(t, serial), renderAll(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("-jobs 1 and -jobs 8 sweep output differ:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, b)
	}
}

// gateRunner forwards its first two Run calls to r and holds every later
// call until that call's context ends, then returns ctx.Err(). A test
// that cancels after two completed cells then always cancels while cells
// are still in flight, however the scheduler orders them.
type gateRunner struct {
	r     Runner
	calls atomic.Int32
}

func (g *gateRunner) Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error) {
	if g.calls.Add(1) <= 2 {
		return g.r.Run(ctx, req)
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestSweepJournalAndResume kills a sweep partway (context cancellation
// after two completed cells), then resumes from the journal on a fresh
// Lab: the journaled cells must not re-execute (RunCount/PrepCount), and
// the final aggregate output must be byte-identical to an uninterrupted
// run's.
func TestSweepJournalAndResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.ndjson")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	completed := 0
	_, err := Run(ctx, &gateRunner{r: newTestLab(t, 2)}, testSpec(), Options{
		Journal: journal,
		Progress: func(ev Event) {
			mu.Lock()
			completed++
			if completed == 2 {
				cancel()
			}
			mu.Unlock()
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error: %v", err)
	}
	lj, err := loadJournal(journal, nil)
	if err != nil {
		t.Fatal(err)
	}
	chk := lj.results
	if len(chk) < 2 {
		t.Fatalf("journal has %d cells, want >= 2", len(chk))
	}
	cells, _ := testSpec().Expand()
	if len(chk) >= len(cells) {
		t.Fatalf("journal already complete (%d cells); interruption did not interrupt", len(chk))
	}

	// Resume on a fresh Lab: only the missing cells may execute.
	l := newTestLab(t, 2)
	resumed, err := Run(context.Background(), l, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(chk) {
		t.Fatalf("resumed %d cells, journal had %d", resumed.Resumed, len(chk))
	}
	if got, want := l.RunCount(), len(cells)-len(chk); got != want {
		t.Fatalf("resume executed %d simulations, want %d (journaled cells re-ran)", got, want)
	}

	// The resumed aggregate equals an uninterrupted run's, byte for byte.
	full, err := Run(context.Background(), newTestLab(t, 2), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, resumed), renderAll(t, full)) {
		t.Fatal("resumed sweep output differs from uninterrupted run")
	}

	// A second resume finds everything journaled and runs nothing.
	l2 := newTestLab(t, 2)
	again, err := Run(context.Background(), l2, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(cells) || l2.RunCount() != 0 || l2.PrepCount("mcf") != 0 {
		t.Fatalf("full resume still ran work: resumed %d, runs %d, preps %d",
			again.Resumed, l2.RunCount(), l2.PrepCount("mcf"))
	}
}

// TestSweepJournalDamageTolerance feeds resume a journal with a
// truncated final line and duplicated cells: both must be tolerated (the
// torn line re-runs, duplicates collapse).
func TestSweepJournalDamageTolerance(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "sweep.ndjson")

	// Produce a complete journal first.
	if _, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{Journal: journal}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("journal has %d lines, want 8", len(lines))
	}

	// Damage it: duplicate the first two intact lines, then truncate the
	// final line mid-JSON (what a kill -9 during an append leaves).
	last := lines[len(lines)-1]
	damaged := strings.Join(lines[:len(lines)-1], "") + lines[0] + lines[1] + last[:len(last)/2]
	if err := os.WriteFile(journal, []byte(damaged), 0o644); err != nil {
		t.Fatal(err)
	}

	l := newTestLab(t, 4)
	res, err := Run(context.Background(), l, testSpec(), Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// 7 intact distinct cells restored; only the torn one re-ran.
	if res.Resumed != 7 {
		t.Fatalf("resumed %d cells, want 7", res.Resumed)
	}
	if l.RunCount() != 1 {
		t.Fatalf("damage recovery executed %d simulations, want 1", l.RunCount())
	}
	full, err := Run(context.Background(), newTestLab(t, 4), testSpec(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(renderAll(t, res), renderAll(t, full)) {
		t.Fatal("damaged-journal resume output differs from clean run")
	}
}

// TestSweepSharesResultCache runs two overlapping sweeps through one Lab:
// the shared singleflight cache must serve the overlap, so total executed
// simulations equal the union of distinct cells.
func TestSweepSharesResultCache(t *testing.T) {
	l := newTestLab(t, 4)
	a := Spec{Workloads: []string{"mcf"}, Budget: 2000, Axes: Axes{Preset: []string{"dla", "r3"}}}
	b := Spec{Workloads: []string{"mcf"}, Budget: 2000, Axes: Axes{Preset: []string{"r3", "baseline"}}}
	if _, err := Run(context.Background(), l, a, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), l, b, Options{}); err != nil {
		t.Fatal(err)
	}
	// dla, r3, baseline: three distinct cells despite four requested.
	if l.RunCount() != 3 {
		t.Fatalf("executed %d simulations, want 3 (overlap not shared)", l.RunCount())
	}
	if l.PrepCount("mcf") != 1 {
		t.Fatalf("mcf prepared %d times, want 1", l.PrepCount("mcf"))
	}
}

// TestSweepResumeRequiresJournal pins the option contract.
func TestSweepResumeRequiresJournal(t *testing.T) {
	if _, err := Run(context.Background(), newTestLab(t, 1), testSpec(), Options{Resume: true}); !errors.Is(err, lab.ErrInvalid) {
		t.Fatalf("resume without journal: %v", err)
	}
}

// TestSweepTierProvenance pins the explicit-provenance contract: an
// estimator-fidelity sweep stamps every CellResult with its tier, tags
// its journal keys with the tier, and resumes from those tagged keys —
// while a cycle sweep over the same cells keeps untagged keys and an
// empty (JSON-omitted) tier, so pre-tier journals and outputs are
// unchanged.
func TestSweepTierProvenance(t *testing.T) {
	l := newTestLab(t, 4)
	spec := testSpec()
	spec.Fidelity = "analytic"
	journal := filepath.Join(t.TempDir(), "tier.ndjson")

	tiers := &TierRunners{Lab: l}
	runner, err := tiers.Runner(spec.Fidelity, spec.Budget, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), runner, spec, Options{Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Tier != TierAnalytic {
			t.Fatalf("cell %s carries tier %q, want %q", c.Key, c.Tier, TierAnalytic)
		}
	}

	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if !strings.Contains(line, `"key":"analytic!`) {
			t.Fatalf("journal line missing tier tag: %s", line)
		}
	}

	// Resume restores every cell from the tagged keys without re-running.
	resumed, err := Run(context.Background(), runner, spec, Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != len(resumed.Cells) {
		t.Fatalf("resumed %d of %d cells", resumed.Resumed, len(resumed.Cells))
	}
	a, b := renderAll(t, res), renderAll(t, resumed)
	if !bytes.Equal(a, b) {
		t.Fatal("resumed analytic sweep output differs from the uninterrupted run")
	}

	// A cycle sweep over the same journal must NOT hit the analytic
	// checkpoints: its (untagged) keys miss, and its results stay
	// tier-less on the wire.
	cycle := testSpec()
	cres, err := Run(context.Background(), l, cycle, Options{Journal: journal, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if cres.Resumed != 0 {
		t.Fatalf("cycle sweep resumed %d cells from analytic checkpoints", cres.Resumed)
	}
	enc, err := json.Marshal(cres.Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(enc), `"tier"`) {
		t.Fatalf("cycle-tier cell serializes a tier field: %s", enc)
	}
}

// TestSweepFidelityValidation rejects unknown fidelity values at spec
// validation time.
func TestSweepFidelityValidation(t *testing.T) {
	spec := testSpec()
	spec.Fidelity = "quantum"
	if _, err := spec.Expand(); !errors.Is(err, lab.ErrInvalid) {
		t.Fatalf("fidelity %q: error %v, want ErrInvalid", spec.Fidelity, err)
	}
}

// TestTierRunnersDeterministic: the handler-side runner factory must
// hand out estimators whose results match a freshly-built tier runner's
// (shared calibrators change cost, never results).
func TestTierRunnersDeterministic(t *testing.T) {
	l := newTestLab(t, 2)
	tiers := &TierRunners{Lab: l}
	r1, err := tiers.Runner("mc", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tiers.Runner("mc", 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	req := lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "r3"}, Budget: 2000}
	a, err := r1.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r2.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runners from one factory disagree:\n%+v\n%+v", a, b)
	}
}
