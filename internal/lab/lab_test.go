package lab

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"r3dla/internal/pipeline"
)

func TestPresetConfigs(t *testing.T) {
	for _, tc := range []struct {
		p    Preset
		dis  bool
		r3on bool
	}{
		{Baseline, true, false},
		{DLA, false, false},
		{R3, false, true},
	} {
		cfg, err := NewConfig(tc.p)
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name(), err)
		}
		o := cfg.SystemOptions()
		if o.Disable != tc.dis {
			t.Errorf("%s: Disable = %t", tc.p.Name(), o.Disable)
		}
		if (o.T1 && o.ValueReuse && o.FetchBuffer && o.Recycle) != tc.r3on {
			t.Errorf("%s: R3 flags wrong: %+v", tc.p.Name(), o)
		}
		if !o.WithBOP {
			t.Errorf("%s: presets include BOP", tc.p.Name())
		}
	}
	if _, ok := PresetByName("DLA"); !ok {
		t.Error("preset lookup should be case-insensitive")
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("unknown preset resolved")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []struct {
		name string
		opts []Option
	}{
		{"negative BOQ", []Option{WithBOQ(-1)}},
		{"zero BOQ", []Option{WithBOQ(0)}},
		{"tiny FQ", []Option{WithFQ(3)}},
		{"zero VQ", []Option{WithVQ(0)}},
		{"zero reboot", []Option{WithRebootCost(0)}},
		{"zero trials", []Option{WithTrials(0)}},
		{"version too high", []Option{WithVersion(6)}},
		{"version negative", []Option{WithVersion(-1)}},
		{"version under recycle", []Option{WithRecycle(true), WithVersion(1)}},
		{"empty LCT", []Option{WithStaticLCT(nil)}},
		{"LCT bad version", []Option{WithStaticLCT(map[int]int{4: 9})}},
	}
	for _, tc := range bad {
		if _, err := NewConfig(DLA, tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v not tagged ErrInvalid", tc.name, err)
		}
	}

	// Look-ahead options on the baseline preset are contradictions (no
	// LT exists), not silent no-ops: each value would otherwise be an
	// inert-but-distinct cache key, and a sweep axis over it would
	// simulate identical baselines N times.
	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"t1 on baseline", WithT1(true)},
		{"value reuse on baseline", WithValueReuse(true)},
		{"recycle on baseline", WithRecycle(true)},
		{"version on baseline", WithVersion(2)},
		{"BOQ on baseline", WithBOQ(1024)},
		{"static LCT on baseline", WithStaticLCT(map[int]int{0: 1})},
	} {
		if _, err := NewConfig(Baseline, tc.opt); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: error %v not tagged ErrInvalid", tc.name, err)
		}
	}
	// Only true contradictions reject: false toggles, stride/BOP and MT
	// core sizing stay valid on the baseline.
	if _, err := NewConfig(Baseline, WithT1(false), WithStride(true), WithBOP(false)); err != nil {
		t.Errorf("benign baseline options rejected: %v", err)
	}
	if _, err := NewConfig(Preset{}); !errors.Is(err, ErrInvalid) {
		t.Errorf("zero preset: %v", err)
	}

	cfg, err := NewConfig(DLA, WithT1(true), WithBOQ(1024), WithVersion(0))
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.SystemOptions()
	if !o.T1 || o.BOQSize != 1024 || !o.HasFixedVersion || o.FixedVersion != 0 {
		t.Fatalf("options not applied: %+v", o)
	}
}

// TestWithVersionZeroIsExplicit is the lab-level face of the FixedVersion
// sentinel fix: version 0 must produce a different canonical key (and
// thus a different cached run) than "no fixed version".
func TestWithVersionZeroIsExplicit(t *testing.T) {
	plain := MustConfig(DLA)
	v0 := MustConfig(DLA, WithVersion(0))
	if plain.Key() == v0.Key() {
		t.Fatalf("version 0 aliases the unversioned config: %s", plain.Key())
	}
	if !strings.Contains(v0.Key(), "v=0") {
		t.Fatalf("version 0 missing from key: %s", v0.Key())
	}
}

func TestCoreSpec(t *testing.T) {
	// A bare model resolves to its pipeline config.
	wide, err := CoreSpec{Model: "wide"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if wide.ROB != 512 || wide.FetchWidth != 16 {
		t.Fatalf("wide model wrong: %+v", wide)
	}
	// Overrides apply on top of the model; zero fields keep defaults.
	cfg, err := CoreSpec{Model: "half", ROB: 999, FetchWidth: 2}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.ROB != 999 || cfg.FetchWidth != 2 || cfg.DecodeWidth != 6 {
		t.Fatalf("overrides wrong: %+v", cfg)
	}
	// Model names are case-insensitive; "" means default.
	if _, err := (CoreSpec{Model: "WIDE"}).Config(); err != nil {
		t.Fatal(err)
	}
	def, err := CoreSpec{}.Config()
	if err != nil || def.ROB != 192 {
		t.Fatalf("default model: %v %+v", err, def)
	}

	for _, bad := range []CoreSpec{
		{Model: "mega"},
		{ROB: -1},
		{FetchWidth: -4},
	} {
		if _, err := bad.Config(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%+v: error %v not tagged ErrInvalid", bad, err)
		}
	}

	// Keys are canonical axis labels.
	if k := (CoreSpec{}).Key(); k != "default" {
		t.Errorf("zero key %q", k)
	}
	if k := (CoreSpec{Model: "Half", ROB: 512, FetchWidth: 2}).Key(); k != "half+fetch=2+rob=512" {
		t.Errorf("override key %q", k)
	}

	// Through ConfigSpec: distinct core specs yield distinct run keys.
	c1, err := (ConfigSpec{Preset: "dla", Cores: &CoreSpec{Model: "wide"}}).Config()
	if err != nil {
		t.Fatal(err)
	}
	c2 := MustConfig(DLA)
	if c1.Key() == c2.Key() {
		t.Fatalf("wide cores alias the default config key: %s", c1.Key())
	}
}

func TestConfigSpecRoundtrip(t *testing.T) {
	on, sz, v := true, 1024, 2
	spec := ConfigSpec{Preset: "dla", T1: &on, BOQSize: &sz, Version: &v}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	o := cfg.SystemOptions()
	if !o.T1 || o.BOQSize != 1024 || o.FixedVersion != 2 || !o.HasFixedVersion {
		t.Fatalf("spec not applied: %+v", o)
	}

	if _, err := (ConfigSpec{Preset: "bogus"}).Config(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("bogus preset: %v", err)
	}
	neg := -3
	if _, err := (ConfigSpec{Preset: "r3", BOQSize: &neg}).Config(); !errors.Is(err, ErrInvalid) {
		t.Fatalf("negative BOQ via spec: %v", err)
	}
	// Empty preset means baseline.
	cfg, err = ConfigSpec{}.Config()
	if err != nil || cfg.Preset() != "baseline" {
		t.Fatalf("empty spec: %v / %q", err, cfg.Preset())
	}
}

// TestClientOptionOrder asserts WithBudget and WithTrainBudget compose
// order-independently: an explicit training budget survives a later
// WithBudget.
func TestClientOptionOrder(t *testing.T) {
	a, err := New(WithTrainBudget(60_000), WithBudget(150_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithBudget(150_000), WithTrainBudget(60_000))
	if err != nil {
		t.Fatal(err)
	}
	if ta, tb := a.c.TrainBudget, b.c.TrainBudget; ta != 60_000 || tb != 60_000 {
		t.Fatalf("train budgets order-dependent: %d vs %d, want 60000", ta, tb)
	}
	// Without an explicit training budget, WithBudget defaults it to half.
	c, err := New(WithBudget(150_000))
	if err != nil {
		t.Fatal(err)
	}
	if c.c.TrainBudget != 75_000 {
		t.Fatalf("default train budget %d, want 75000", c.c.TrainBudget)
	}
}

func TestLabRunAndCache(t *testing.T) {
	l, err := New(WithBudget(3_000), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	r, err := l.Run(ctx, RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.IPC <= 0 || r.Committed < 3_000 || r.LT == nil {
		t.Fatalf("implausible result: %+v", r)
	}
	if r.Budget != 3_000 {
		t.Fatalf("budget %d, want lab default 3000", r.Budget)
	}

	// Identical request: served from cache, identical values.
	r2, err := l.Run(ctx, RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.IPC != r.IPC || r2.Cycles != r.Cycles || r2.Reboots != r.Reboots {
		t.Fatalf("cached rerun diverged: %+v vs %+v", r2, r)
	}
	if n := l.PrepCount("mcf"); n != 1 {
		t.Fatalf("mcf prepared %d times, want 1", n)
	}

	// A budget override is a distinct cache entry with a longer run.
	r3, err := l.Run(ctx, RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}, Budget: 6_000})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Committed < 6_000 || r3.Budget != 6_000 {
		t.Fatalf("budget override ignored: %+v", r3)
	}
	if n := l.PrepCount("mcf"); n != 1 {
		t.Fatalf("budget override re-prepared: %d", n)
	}

	if _, err := l.Run(ctx, RunRequest{Workload: "nope", Config: ConfigSpec{Preset: "dla"}}); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload: %v", err)
	}
}

// TestCoreIPCSharesTheRunMemo pins that a standalone-core run is a keyed
// run: CoreIPC simulates once through the run memo, and the baseline
// preset on the same core is the same cell, served without a second
// simulation.
func TestCoreIPCSharesTheRunMemo(t *testing.T) {
	l, err := New(WithBudget(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := l.Prepare(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	ipc, err := l.CoreIPC(ctx, p, pipeline.HalfConfig(), 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := l.RunCount(); n != 1 {
		t.Fatalf("CoreIPC executed %d memoized simulations, want 1", n)
	}
	r, err := l.RunPrepared(ctx, p, MustConfig(Baseline, WithCores(pipeline.HalfConfig())), 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := l.RunCount(); n != 1 {
		t.Fatalf("the baseline preset on the half core re-simulated: %d memoized simulations, want 1", n)
	}
	if r.IPC != ipc {
		t.Fatalf("RunPrepared IPC %v, CoreIPC %v: want the same cell", r.IPC, ipc)
	}
}

// TestLabRunVersionZero runs recycle-pool version 0 end-to-end through
// the request path and checks it does not silently fall back to the
// baseline skeleton (the old sentinel bug's observable symptom).
func TestLabRunVersionZero(t *testing.T) {
	l, err := New(WithBudget(4_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v := 0
	v0, err := l.Run(ctx, RunRequest{Workload: "libq", Config: ConfigSpec{Preset: "dla", Version: &v}})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := l.Run(ctx, RunRequest{Workload: "libq", Config: ConfigSpec{Preset: "dla"}})
	if err != nil {
		t.Fatal(err)
	}
	if v0.LT == nil || plain.LT == nil {
		t.Fatal("missing LT stats")
	}
	if v0.LT.Committed >= plain.LT.Committed {
		t.Fatalf("version 0 (reduced skeleton) LT committed %d >= baseline skeleton's %d",
			v0.LT.Committed, plain.LT.Committed)
	}
}

// TestLabConcurrentSingleflight hammers the same request from many
// goroutines: preparation and the simulation itself must each execute
// once.
func TestLabConcurrentSingleflight(t *testing.T) {
	var mu sync.Mutex
	runs := 0
	l, err := New(WithBudget(3_000), WithJobs(4), WithProgress(func(ev Event) {
		if ev.Stage == "run" {
			mu.Lock()
			runs++
			mu.Unlock()
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = l.Run(context.Background(), RunRequest{Workload: "bzip", Config: ConfigSpec{Preset: "r3"}})
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			t.Fatal(e)
		}
	}
	if n := l.PrepCount("bzip"); n != 1 {
		t.Fatalf("bzip prepared %d times, want 1", n)
	}
	if runs != 1 {
		t.Fatalf("simulation ran %d times, want 1", runs)
	}
}

// TestLabCancellation asserts a canceled context aborts a run with the
// context's error, and that the lab stays usable afterwards.
func TestLabCancellation(t *testing.T) {
	l, err := New(WithBudget(3_000))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Run(ctx, RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v", err)
	}
	if _, err := l.Run(context.Background(), RunRequest{Workload: "mcf", Config: ConfigSpec{Preset: "dla"}}); err != nil {
		t.Fatalf("lab poisoned after cancellation: %v", err)
	}
}

// TestFrontendProfileStopsWhenCanceled cancels the tier calibrator's
// frontend runs mid-simulation. At this budget the I-cache supply run,
// which deadlocks on gobmk, spins for 10^10 cycles before it gives up,
// so only a run that polls its context can return in time. The call
// must return the context's error and give the Lab's worker slots back,
// so the next run does not wait on them.
func TestFrontendProfileStopsWhenCanceled(t *testing.T) {
	l, err := New(WithBudget(2_000), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Prepare(context.Background(), "gobmk"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := l.FrontendProfile(ctx, "gobmk", 10_000_000)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled FrontendProfile returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("FrontendProfile still running 10s after its context was canceled")
	}
	if _, err := l.RunConfig(context.Background(), "gobmk", MustConfig(Baseline), 2_000); err != nil {
		t.Fatalf("run after the canceled profile: %v", err)
	}
}

// TestRunMemoKeepsNumbersNotMachines bounds what the run memo keeps per
// distinct cell. A memoized run is a snapshot of its counters; one that
// still pointed into its System would pin both cores, their predictors
// and the L3's line array, well over a megabyte per cell.
func TestRunMemoKeepsNumbersNotMachines(t *testing.T) {
	l, err := New(WithBudget(3_000), WithJobs(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := l.RunConfig(ctx, "mcf", MustConfig(DLA), 2_000); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	cells := 0
	for i := range 20 {
		for _, p := range []Preset{Baseline, DLA, R3} {
			if _, err := l.RunConfig(ctx, "mcf", MustConfig(p), 3_000+uint64(i)*100); err != nil {
				t.Fatal(err)
			}
			cells++
		}
	}
	growth := heap() - before
	runtime.KeepAlive(l)
	if n := l.RunCount(); n != cells+1 {
		t.Fatalf("lab simulated %d cells, want %d distinct ones", n, cells+1)
	}
	const maxPerCell = 64 << 10
	per := growth / int64(cells)
	t.Logf("live heap grew %d bytes per memoized cell", per)
	if per > maxPerCell {
		t.Errorf("the run memo keeps %d KB of live heap per cell, want <= %d KB", per>>10, maxPerCell>>10)
	}
}

func TestCharacterizeAndDescribe(t *testing.T) {
	st, err := Characterize("mcf", 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadPct <= 0 || st.Name != "mcf" {
		t.Fatalf("empty characterization: %+v", st)
	}
	if _, err := Characterize("nope", 10_000); !errors.Is(err, ErrUnknownWorkload) {
		t.Fatalf("unknown workload: %v", err)
	}

	info, err := DescribeSkeletons("mcf", 10_000, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 6 || info.Baseline == "" {
		t.Fatalf("skeleton info incomplete: %+v", info)
	}
	if len(info.Listing) != info.StaticInsts {
		t.Fatalf("listing has %d lines for %d static insts", len(info.Listing), info.StaticInsts)
	}
}
