package tier

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
)

const testBudget = 2000

// Shared cycle-accurate lab + calibrator: calibration is the expensive
// part of these tests, so every test reuses one capture per workload.
var (
	fixOnce sync.Once
	fixLab  *lab.Lab
	fixCal  *Calibrator
)

func fixture(t *testing.T) (*lab.Lab, *Calibrator) {
	t.Helper()
	fixOnce.Do(func() {
		l, err := lab.New(lab.WithBudget(testBudget))
		if err != nil {
			panic(err)
		}
		fixLab = l
		fixCal = NewCalibrator(l, testBudget, nil)
	})
	return fixLab, fixCal
}

func intp(v int) *int       { return &v }
func boolp(v bool) *bool    { return &v }
func u64p(v uint64) *uint64 { return &v }

// testCells is a small but diverse cell set: presets, queue sizings, the
// fetch buffer toggle, reboot cost and core sizing all vary.
func testCells() []lab.RunRequest {
	specs := []lab.ConfigSpec{
		{Preset: "baseline"},
		{Preset: "dla"},
		{Preset: "dla", FetchBuffer: boolp(true)},
		{Preset: "r3"},
		{Preset: "r3", BOQSize: intp(64)},
		{Preset: "r3", BOQSize: intp(2048), VQSize: intp(128)},
		{Preset: "r3", RebootCost: u64p(512)},
		{Preset: "r3", Cores: &lab.CoreSpec{Model: "half"}},
	}
	reqs := make([]lab.RunRequest, len(specs))
	for i, s := range specs {
		reqs[i] = lab.RunRequest{Workload: "mcf", Config: s, Budget: testBudget}
	}
	return reqs
}

type runner interface {
	Run(ctx context.Context, req lab.RunRequest) (*lab.RunResult, error)
}

func runAll(t *testing.T, r runner, reqs []lab.RunRequest) []*lab.RunResult {
	t.Helper()
	out := make([]*lab.RunResult, len(reqs))
	for i, req := range reqs {
		res, err := r.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestAnalyticDeterministicOrderIndependent pins the tier determinism
// contract: any evaluation order, any concurrency, fresh or reused
// runner — identical results cell for cell.
func TestAnalyticDeterministicOrderIndependent(t *testing.T) {
	_, cal := fixture(t)
	reqs := testCells()
	forward := runAll(t, NewAnalyticRunner(cal), reqs)

	// Reverse order on a fresh runner (cold memo).
	rev := NewAnalyticRunner(cal)
	backward := make([]*lab.RunResult, len(reqs))
	for i := len(reqs) - 1; i >= 0; i-- {
		res, err := rev.Run(context.Background(), reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		backward[i] = res
	}

	// Fully concurrent on a third runner.
	conc := NewAnalyticRunner(cal)
	parallel := make([]*lab.RunResult, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := conc.Run(context.Background(), reqs[i])
			if err != nil {
				t.Error(err)
				return
			}
			parallel[i] = res
		}(i)
	}
	wg.Wait()

	for i := range reqs {
		if !reflect.DeepEqual(forward[i], backward[i]) {
			t.Errorf("cell %d: forward vs backward diverge:\n%+v\n%+v", i, forward[i], backward[i])
		}
		if !reflect.DeepEqual(forward[i], parallel[i]) {
			t.Errorf("cell %d: sequential vs concurrent diverge:\n%+v\n%+v", i, forward[i], parallel[i])
		}
	}
}

// TestAnalyticDistinguishesCells guards against the estimator collapsing
// to a constant: different configurations must price differently, and
// the R3 estimate must beat the baseline estimate (as it does in every
// cycle-accurate run).
func TestAnalyticDistinguishesCells(t *testing.T) {
	_, cal := fixture(t)
	res := runAll(t, NewAnalyticRunner(cal), testCells())
	distinct := make(map[uint64]bool)
	for _, r := range res {
		distinct[r.Cycles] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("estimator collapsed: only %d distinct cycle counts across %d cells", len(distinct), len(res))
	}
	if res[3].IPC <= res[0].IPC {
		t.Fatalf("analytic tier ranks r3 (%.3f) below baseline (%.3f)", res[3].IPC, res[0].IPC)
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	_, cal := fixture(t)
	reqs := testCells()
	a := runAll(t, NewMonteCarloRunner(cal, 7), reqs)
	b := runAll(t, NewMonteCarloRunner(cal, 7), reqs)
	for i := range reqs {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("cell %d: two runs with the same seed diverge:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	c := runAll(t, NewMonteCarloRunner(cal, 8), reqs)
	var moved bool
	for i := range reqs {
		if a[i].Cycles != c[i].Cycles {
			moved = true
		}
	}
	if !moved {
		t.Error("changing the seed changed nothing — the sampler is not actually sampling")
	}
}

// TestEstimatorErrorBand is the estimator-error golden: on three
// workloads and a small probe set, both tiers must land within a stated
// MAPE band of the cycle-accurate ground truth. The band is generous —
// these are steering estimates, not replacements — but it pins the
// estimator to reality: a refactor that breaks calibration or the
// scaling factors blows way past it.
func TestEstimatorErrorBand(t *testing.T) {
	l, cal := fixture(t)
	const band = 0.15 // MAPE ≤ 15% (measured ~3% on the seed calibration)
	probes := []lab.ConfigSpec{
		{Preset: "r3"},
		{Preset: "dla"},
		{Preset: "r3", BOQSize: intp(64)},
	}
	for _, tierRun := range []struct {
		name string
		r    runner
	}{
		{"analytic", NewAnalyticRunner(cal)},
		{"mc", NewMonteCarloRunner(cal, 7)},
	} {
		var sum float64
		var n int
		for _, wl := range []string{"mcf", "gobmk", "bzip"} {
			for _, spec := range probes {
				req := lab.RunRequest{Workload: wl, Config: spec, Budget: testBudget}
				truth, err := l.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				est, err := tierRun.r.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if est.Workload != truth.Workload || est.Config != truth.Config || est.Budget != truth.Budget {
					t.Fatalf("%s: estimate carries wrong identity: %s/%s@%d", tierRun.name, est.Workload, est.Config, est.Budget)
				}
				sum += math.Abs(est.IPC-truth.IPC) / truth.IPC
				n++
			}
		}
		mape := sum / float64(n)
		t.Logf("%s tier MAPE over %d probes: %.3f", tierRun.name, n, mape)
		if mape > band {
			t.Errorf("%s tier MAPE %.3f exceeds the %.2f band", tierRun.name, mape, band)
		}
	}
}

// TestCalibrationCacheReuse proves the "captured once, cached on disk"
// contract: a second process (fresh Lab over the same cache directory)
// prices cells without a single memoized simulation. It still prepares
// the workload; the calibration's own runs are what the store saves.
func TestCalibrationCacheReuse(t *testing.T) {
	pc, err := resultstore.Open(t.TempDir(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}

	l1, err := lab.New(lab.WithBudget(testBudget))
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCalibrator(l1, testBudget, pc)
	cal1, err := c1.Get(context.Background(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if l1.RunCount() == 0 {
		t.Fatal("cold calibration ran no simulations?")
	}

	l2, err := lab.New(lab.WithBudget(testBudget))
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCalibrator(l2, testBudget, pc)
	cal2, err := c2.Get(context.Background(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if n := l2.RunCount(); n != 0 {
		t.Fatalf("warm calibration still ran %d simulations", n)
	}
	if !reflect.DeepEqual(cal1, cal2) {
		t.Fatal("calibration loaded from the store differs from the captured one")
	}

	// And the runner built over the warm calibrator produces identical
	// estimates to one over the cold calibrator.
	req := lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "r3"}, Budget: testBudget}
	r1, err := NewAnalyticRunner(c1).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewAnalyticRunner(c2).Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("estimates diverge across processes:\n%+v\n%+v", r1, r2)
	}
}

// TestBudgetDefaultsToLab covers the Budget==0 path: the tier must fall
// back to the calibrator lab's default, mirroring RunPrepared.
func TestBudgetDefaultsToLab(t *testing.T) {
	_, cal := fixture(t)
	r := NewAnalyticRunner(cal)
	res, err := r.Run(context.Background(), lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "r3"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Budget != testBudget {
		t.Fatalf("budget defaulted to %d, want the lab default %d", res.Budget, testBudget)
	}
	if res.Committed != testBudget {
		t.Fatalf("committed %d, want %d", res.Committed, testBudget)
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	_, cal := fixture(t)
	r := NewAnalyticRunner(cal)
	_, err := r.Run(context.Background(), lab.RunRequest{Workload: "nope", Config: lab.ConfigSpec{Preset: "r3"}})
	if err == nil {
		t.Fatal("unknown workload priced without error")
	}
}

// TestCalibratorGetWaiterCancel: a Get whose context has ended, while
// another Get is capturing the same workload, returns ctx.Err() at once
// instead of waiting out the capture; the capture itself goes on.
func TestCalibratorGetWaiterCancel(t *testing.T) {
	capturing := make(chan struct{})
	release := make(chan struct{})
	var hold, unblock sync.Once
	defer unblock.Do(func() { close(release) })
	l, err := lab.New(lab.WithBudget(testBudget), lab.WithProgress(func(ev lab.Event) {
		if ev.Stage == "prep" {
			// The first capture stalls in its preparation until released.
			hold.Do(func() { close(capturing); <-release })
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCalibrator(l, testBudget, nil)
	first := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), "mcf")
		first <- err
	}()
	select {
	case <-capturing:
	case <-time.After(30 * time.Second):
		t.Fatal("the first capture never started")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	second := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, "mcf")
		second <- err
	}()
	select {
	case err := <-second:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled Get returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a canceled Get stayed blocked behind another Get's capture")
	}

	unblock.Do(func() { close(release) })
	if err := <-first; err != nil {
		t.Fatalf("the capture failed: %v", err)
	}
}
