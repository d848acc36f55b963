// Benchmarks regenerating every table and figure of the paper at reduced
// budgets (CI-friendly), plus ablation benches for the design choices
// DESIGN.md calls out and microbenchmarks of the simulator itself, with
// the allocation tests of the core benchmarks.
//
// The full-budget regeneration is `go run ./cmd/r3dla -exp all`.
package r3dla_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"r3dla"
	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/exp"
	"r3dla/internal/fleet"
	"r3dla/internal/lab"
	"r3dla/internal/resultstore"
	"r3dla/internal/sweep"
)

const benchBudget = 6_000 // per-simulation budget inside table/figure benches

func runExp(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		ctx := exp.NewContext(benchBudget)
		e, ok := exp.ByID(id)
		if !ok {
			b.Fatalf("unknown experiment %s", id)
		}
		if out := e.Run(ctx).String(); len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// benchAll runs the full registry (the `-exp all` path) through the
// engine with the given worker-pool width; the Serial/Parallel pair
// measures the engine's wall-time win.
func benchAll(b *testing.B, jobs int) {
	b.Helper()
	if jobs != 1 && runtime.GOMAXPROCS(0) == 1 {
		b.Log("GOMAXPROCS=1: the parallel engine degenerates to serial on this machine")
	}
	ids := exp.IDs()
	for i := 0; i < b.N; i++ {
		ctx := exp.NewContext(benchBudget)
		ctx.Jobs = jobs
		results, err := exp.Run(context.Background(), ctx, ids, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Err != nil {
				b.Fatalf("%s: %v", r.ID, r.Err)
			}
		}
	}
}

// BenchmarkExpAllSerial is `r3dla -exp all -jobs 1` at a CI budget.
func BenchmarkExpAllSerial(b *testing.B) { benchAll(b, 1) }

// BenchmarkExpAllParallel is `r3dla -exp all` on the full worker pool;
// compare against BenchmarkExpAllSerial for the engine speedup.
func BenchmarkExpAllParallel(b *testing.B) { benchAll(b, 0) }

// One bench per paper artifact.
func BenchmarkTable1(b *testing.B) { runExp(b, "tab1") }
func BenchmarkFig1(b *testing.B)   { runExp(b, "fig1") }
func BenchmarkFig5(b *testing.B)   { runExp(b, "fig5") }
func BenchmarkFig9a(b *testing.B)  { runExp(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { runExp(b, "fig9b") }
func BenchmarkTable2(b *testing.B) { runExp(b, "tab2") }
func BenchmarkFig10(b *testing.B)  { runExp(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExp(b, "fig11") }
func BenchmarkTable3(b *testing.B) { runExp(b, "tab3") }
func BenchmarkFig12(b *testing.B)  { runExp(b, "fig12") }
func BenchmarkFig13a(b *testing.B) { runExp(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { runExp(b, "fig13b") }
func BenchmarkFig13c(b *testing.B) { runExp(b, "fig13c") }
func BenchmarkFig14(b *testing.B)  { runExp(b, "fig14") }
func BenchmarkFig15(b *testing.B)  { runExp(b, "fig15") }

// ---------------------------------------------------------------------
// Ablations: design-space sweeps around the paper's chosen points.

// prepMcf memoizes one prepared workload for the ablation benches.
var ablation *struct {
	prog  *r3dla.Program
	setup func(*r3dla.Memory)
	prof  *r3dla.TrainingProfile
	set   *r3dla.SkeletonSet
}

func prepAblation(b *testing.B) {
	b.Helper()
	if ablation != nil {
		return
	}
	w := r3dla.Workload("mcf")
	tp, ts := w.Build(1)
	prof := r3dla.Profile(tp, ts, 30_000)
	ep, es := w.Build(2)
	ablation = &struct {
		prog  *r3dla.Program
		setup func(*r3dla.Memory)
		prof  *r3dla.TrainingProfile
		set   *r3dla.SkeletonSet
	}{ep, es, prof, r3dla.Skeletons(ep, prof)}
}

func runDLA(b *testing.B, mut func(*core.Options)) float64 {
	b.Helper()
	prepAblation(b)
	opt := core.DLAOptions()
	if mut != nil {
		mut(&opt)
	}
	sys := r3dla.NewSystem(ablation.prog, ablation.setup, ablation.set, ablation.prof, opt)
	r := sys.Run(30_000)
	return r.IPC()
}

// BenchmarkAblationBOQSize sweeps the look-ahead depth bound.
func BenchmarkAblationBOQSize(b *testing.B) {
	for _, size := range []int{32, 128, 512, 2048} {
		size := size
		b.Run(itobench(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.BOQSize = size })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationRebootCost sweeps the reboot penalty (paper: 64 -> 200
// costs < 2%).
func BenchmarkAblationRebootCost(b *testing.B) {
	for _, cost := range []uint64{16, 64, 200, 1000} {
		cost := cost
		b.Run(itobench(int(cost)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.RebootCost = cost })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationFQSize sweeps the footnote queue capacity.
func BenchmarkAblationFQSize(b *testing.B) {
	for _, size := range []int{16, 64, 128, 512} {
		size := size
		b.Run(itobench(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.FQSize = size })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

// BenchmarkAblationSkeletonVersion runs each fixed skeleton version.
func BenchmarkAblationSkeletonVersion(b *testing.B) {
	for v := 0; v < 6; v++ {
		v := v
		b.Run(itobench(v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ipc := runDLA(b, func(o *core.Options) { o.FixedVersion, o.HasFixedVersion = v, true })
				b.ReportMetric(ipc, "ipc")
			}
		})
	}
}

func itobench(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// ---------------------------------------------------------------------
// Fleet: distributed sweep throughput, run by CI's fleet step.

// fleetSweepSpec is the fixed grid the fleet benches dispatch: one
// workload x two presets x two BOQ depths = 4 cells.
func fleetSweepSpec() sweep.Spec {
	return sweep.Spec{
		Workloads: []string{"mcf"},
		Budget:    benchBudget,
		Axes: sweep.Axes{
			Preset:  []string{"dla", "r3"},
			BOQSize: []int{64, 512},
		},
	}
}

// benchFleetSweep measures one whole sweep per op, with a fresh Lab (and
// fresh backend servers) each iteration so the singleflight caches don't
// turn later iterations into cache reads. backends=0 is the in-process
// reference; otherwise the sweep routes through a fleet pool over that
// many r3dlad-shaped httptest servers.
func benchFleetSweep(b *testing.B, nBackends int) {
	b.Helper()
	newRunner := func() (sweep.Runner, func()) {
		if nBackends == 0 {
			l, err := lab.New(lab.WithBudget(benchBudget))
			if err != nil {
				b.Fatal(err)
			}
			return l, func() {}
		}
		var members []fleet.Backend
		var servers []*httptest.Server
		for j := 0; j < nBackends; j++ {
			l, err := lab.New(lab.WithBudget(benchBudget))
			if err != nil {
				b.Fatal(err)
			}
			h := lab.NewServer(l)
			h.Handle("POST /v1/sweeps", sweep.NewHandler(l, h))
			srv := httptest.NewServer(h)
			servers = append(servers, srv)
			r, err := fleet.NewRemote(srv.URL)
			if err != nil {
				b.Fatal(err)
			}
			members = append(members, r)
		}
		pool, err := fleet.NewPool(members)
		if err != nil {
			b.Fatal(err)
		}
		return pool, func() {
			pool.Close()
			for _, srv := range servers {
				srv.Close()
			}
		}
	}
	spec := fleetSweepSpec()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runner, cleanup := newRunner()
		b.StartTimer()
		if _, err := sweep.Run(context.Background(), runner, spec, sweep.Options{}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cleanup()
		b.StartTimer()
	}
}

// BenchmarkFleetSweepLocal is the single-process reference.
func BenchmarkFleetSweepLocal(b *testing.B) { benchFleetSweep(b, 0) }

// BenchmarkFleetSweep1Backend adds the wire: same grid through one
// r3dlad; the delta over Local is pure protocol overhead.
func BenchmarkFleetSweep1Backend(b *testing.B) { benchFleetSweep(b, 1) }

// BenchmarkFleetSweep3Backends shards the grid across three r3dlad
// instances. It reads slower than 1Backend: every backend that receives
// a cell prepares mcf itself, and the in-process servers share this
// machine's cores (DESIGN.md §7).
func BenchmarkFleetSweep3Backends(b *testing.B) { benchFleetSweep(b, 3) }

// storeHitBudget is the budget of the warmed store-hit cell.
const storeHitBudget = 3_000

// newStoreHitRemote serves an in-process lab.Server with a result store
// behind httptest, runs one mcf cell so the store holds it, and returns
// a Remote for which Run(req) is a store hit: one in-process /v1/runs
// request with no admission and no simulation.
func newStoreHitRemote(tb testing.TB) (r *fleet.Remote, req lab.RunRequest) {
	tb.Helper()
	l, err := lab.New(lab.WithBudget(storeHitBudget))
	if err != nil {
		tb.Fatal(err)
	}
	st, err := resultstore.Open(tb.TempDir(), lab.ResultsFingerprint, 0)
	if err != nil {
		tb.Fatal(err)
	}
	srv := httptest.NewServer(lab.NewServer(l, lab.WithResultStore(st)))
	tb.Cleanup(srv.Close)
	r, err = fleet.NewRemote(srv.URL)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	req = lab.RunRequest{Workload: "mcf", Config: lab.ConfigSpec{Preset: "r3"}, Budget: storeHitBudget}
	if _, err := r.Run(context.Background(), req); err != nil {
		tb.Fatal(err)
	}
	return r, req
}

// BenchmarkRemoteStoreHit is one ?stream=1 store hit through
// fleet.Remote, client and server in this process. CI runs it with
// -benchmem, ungated.
func BenchmarkRemoteStoreHit(b *testing.B) {
	r, req := newStoreHitRemote(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the simulator substrate.

// BenchmarkEmulator measures raw functional-emulation throughput.
func BenchmarkEmulator(b *testing.B) {
	w := r3dla.Workload("bzip")
	prog, setup := w.Build(1)
	mem := r3dla.NewMemory()
	setup(mem)
	m := emu.NewMachine(prog, mem)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// setupAll builds all 25 evaluation memories: each workload's evaluation
// build, then its setup into a fresh memory.
func setupAll() {
	for _, w := range r3dla.Workloads() {
		_, setup := w.Build(exp.EvalSeed)
		setup(r3dla.NewMemory())
	}
}

// BenchmarkWorkloadSetup is setupAll per op. Memory.Write takes about
// half of it (46% in one CPU profile), and neither the emulator nor the
// core benchmarks time the writes.
func BenchmarkWorkloadSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setupAll()
	}
}

// TestWorkloadSetupAllocs bounds the heap objects of setupAll at
// 5,020 × 1.10 + 16, the rule TestCoreRunAllocs uses: it made 5,020
// when this test was written. A graph builder that allocates per vertex
// fails at once; the CSR graphs' one slice per vertex made 349,080.
func TestWorkloadSetupAllocs(t *testing.T) {
	const maxAllocs = 5538
	if got := testing.AllocsPerRun(2, setupAll); got > maxAllocs {
		t.Errorf("building the 25 evaluation memories allocates %.0f objects, want <= %d", got, maxAllocs)
	}
}

// ---------------------------------------------------------------------
// The core: one warm-prep cycle-accurate cell per preset, the whole
// reproduce grid, skeleton generation and the queue substrate. CI's
// speed step holds each of these but the grid to a wide ns/op ceiling.
// The Allocs tests below bound their allocations tightly, since a count
// does not depend on the runner.

// coreBudget is the committed-instruction budget of one CoreRun cell and
// the Lab budget mcf is prepared at. The CI ceilings were set at it.
const coreBudget = 10_000

// mcfPrep prepares mcf once per test binary, so CoreRun and SkeletonGen
// measure simulation and generation only, never preparation. mcf is the
// paper's poster child: the highest L2 MPKI in the suite, heavy
// look-ahead activity, and all four R3 mechanisms engaged under r3.
var mcfPrep = sync.OnceValues(func() (*lab.Prepared, error) {
	l, err := lab.New(lab.WithBudget(coreBudget))
	if err != nil {
		return nil, err
	}
	return l.Prepare(context.Background(), "mcf")
})

func prepMcf(tb testing.TB) *lab.Prepared {
	tb.Helper()
	p, err := mcfPrep()
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// coreCells are the CoreRun cells. maxAllocs is the allocs/op recorded
// when the CI ceilings were set (159, 149 and 101) × 1.10 + 16.
var coreCells = []struct {
	name      string
	opt       core.Options
	maxAllocs float64
}{
	{"mcf_r3", core.R3Options(), 190},
	{"mcf_dla", core.DLAOptions(), 179},
	{"mcf_baseline", core.Options{Disable: true, WithBOP: true}, 127},
}

// runCell is one CoreRun op: system construction over the frozen image,
// which the System forks copy-on-write itself, then the cycle loop.
func runCell(tb testing.TB, p *lab.Prepared, opt core.Options) {
	sys := core.NewSystemWithMemory(p.Prog, p.Image(), p.Set, p.Prof, opt)
	if r := sys.Run(coreBudget); r.MT.Committed == 0 {
		tb.Fatal("no instructions committed")
	}
}

// BenchmarkCoreRun is the unit of work every sweep, experiment and fleet
// request fans out over.
func BenchmarkCoreRun(b *testing.B) {
	p := prepMcf(b)
	for _, c := range coreCells {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runCell(b, p, c.opt)
			}
		})
	}
}

// gridColumns are the reproduce grid's columns: Fig. 9-a's BL, DLA and
// R3-DLA, then Fig. 13-c's R3-DLA without T1, value reuse, the fetch
// buffer and recycling.
func gridColumns() []core.Options {
	var cols []core.Options
	for _, cfg := range []lab.Config{
		lab.MustConfig(lab.Baseline),
		lab.MustConfig(lab.DLA),
		lab.MustConfig(lab.R3),
		lab.MustConfig(lab.R3, lab.WithT1(false)),
		lab.MustConfig(lab.R3, lab.WithValueReuse(false)),
		lab.MustConfig(lab.R3, lab.WithFetchBuffer(false)),
		lab.MustConfig(lab.R3, lab.WithRecycle(false)),
	} {
		cols = append(cols, cfg.SystemOptions())
	}
	return cols
}

// BenchmarkCoreGrid is the reproduce grid at benchBudget: its 7 columns
// on all 25 workloads per op, one cell at a time through one Context's
// unmemoized runner. BenchmarkCoreRun times mcf alone; this times the
// cycle loop over every workload's mix, so a hot-loop change can be
// sized by alternating two `go test -c` binaries on it. Preparation
// runs before the timer.
func BenchmarkCoreGrid(b *testing.B) {
	ctx := exp.NewContext(benchBudget)
	ctx.Jobs = 1
	var preps []*exp.Prepared
	for _, w := range r3dla.Workloads() {
		preps = append(preps, ctx.Prep(w.Name))
	}
	cols := gridColumns()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		for _, p := range preps {
			for _, opt := range cols {
				cycles += ctx.RunDLAAt(p, opt, benchBudget).MT.Cycles
			}
		}
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "simcycles/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/simcycle")
}

// BenchmarkSkeletonGen is the binary-analysis pass alone: profile-driven
// skeleton generation for the whole recycle pool.
func BenchmarkSkeletonGen(b *testing.B) {
	p := prepMcf(b)
	b.Run("mcf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if s := core.Generate(p.Prog, p.Prof); s.Baseline == nil {
				b.Fatal("no baseline skeleton")
			}
		}
	})
}

// BenchmarkQueues is one BOQ push+pop and one FQ push+pop per op.
func BenchmarkQueues(b *testing.B) {
	b.Run("boq_fq", func(b *testing.B) {
		boq := core.NewBOQ(512)
		fq := core.NewFQ(128)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			boq.Push(i&1 == 0)
			boq.Pop()
			fq.Push(core.FQEntry{PC: i, Addr: uint64(i)})
			fq.Pop()
		}
	})
}

// TestCoreRunAllocs bounds the heap objects of one CoreRun cell. The
// count barely moves between runs (163 or 164, 153 and 103 for r3, dla
// and baseline when this test was written, with or without -race), so
// one escaping per-cycle local, which costs thousands, fails at once.
func TestCoreRunAllocs(t *testing.T) {
	p := prepMcf(t)
	for _, c := range coreCells {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(3, func() { runCell(t, p, c.opt) }); got > c.maxAllocs {
				t.Errorf("one %s cell allocates %.0f objects, want <= %.0f", c.name, got, c.maxAllocs)
			}
		})
	}
}

// TestStoreHitAllocs bounds the bytes one store hit allocates, client
// and in-process server together. A hit allocated 1,066 KB while the
// client preallocated a 1 MiB line buffer per request, and 20.6 KB
// (~40 KB under -race) since its buffer grows only as a line needs.
func TestStoreHitAllocs(t *testing.T) {
	const hits, maxBytes = 200, 64 << 10
	r, req := newStoreHitRemote(t)
	ctx := context.Background()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits; i++ {
		if _, err := r.Run(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	st, err := r.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.Store.Hits != hits {
		t.Fatalf("%d simulations and %d store hits, want 1 and %d", st.Runs, st.Store.Hits, hits)
	}
	if got := (after.TotalAlloc - before.TotalAlloc) / hits; got > maxBytes {
		t.Errorf("one store hit allocates %d bytes, want <= %d", got, maxBytes)
	}
}

// TestSkeletonGenAllocs bounds the heap objects of one core.Generate
// call on mcf at 94 × 1.10 + 16; it made 94 when the CI ceilings were
// set and when this test was written.
func TestSkeletonGenAllocs(t *testing.T) {
	p := prepMcf(t)
	const maxAllocs = 119
	if got := testing.AllocsPerRun(10, func() { core.Generate(p.Prog, p.Prof) }); got > maxAllocs {
		t.Errorf("core.Generate on mcf allocates %.0f objects, want <= %d", got, maxAllocs)
	}
}
