package exp

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"r3dla/internal/core"
	"r3dla/internal/emu"
	"r3dla/internal/pipeline"
	"r3dla/internal/workloads"
)

// tiny context for fast tests.
func testCtx() *Context { return NewContext(8_000) }

func TestPrepMemoizes(t *testing.T) {
	c := testCtx()
	p1 := c.Prep("bzip")
	p2 := c.Prep("bzip")
	if p1 != p2 {
		t.Fatal("Prep not memoized")
	}
	if p1.Set == nil || p1.Prof == nil {
		t.Fatal("Prep incomplete")
	}
}

func TestRunCachedMemoizes(t *testing.T) {
	c := testCtx()
	p := c.Prep("bzip")
	r1 := c.RunCached(p, core.Options{Disable: true, WithBOP: true})
	r2 := c.RunCached(p, core.Options{Disable: true, WithBOP: true})
	if r1 != r2 {
		t.Fatal("RunCached not memoized")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"tab1", "fig1", "fig5", "fig9a", "fig9b", "tab2",
		"fig10", "fig11", "tab3", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14", "fig15"}
	if len(Registry) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(Registry), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %s missing", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus id resolved")
	}
	if len(IDs()) != len(want) {
		t.Fatal("IDs() incomplete")
	}
}

func TestTable1Renders(t *testing.T) {
	out := Table1(testCtx()).String()
	for _, want := range []string{"192 ROB", "BOQ 512", "TAGE"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig5AndFig14Render(t *testing.T) {
	c := testCtx()
	out := Fig5(c).String()
	if !strings.Contains(out, "P(queue length)") || !strings.Contains(out, "expected fetch bubbles") {
		t.Fatalf("Fig5 incomplete:\n%s", out)
	}
	out14 := Fig14(c).String()
	if !strings.Contains(out14, "theoretical") || !strings.Contains(out14, "simulated") {
		t.Fatalf("Fig14 incomplete:\n%s", out14)
	}
}

func TestFig1Renders(t *testing.T) {
	out := Fig1(testCtx()).String()
	if !strings.Contains(out, "ideal:2048") || !strings.Contains(out, "gmean") {
		t.Fatalf("Fig1 incomplete:\n%s", out)
	}
}

// TestSmallFig9a exercises the bottom-line experiment on a reduced
// context: smoke coverage of the full BL/DLA/R3 matrix.
func TestSmallFig9a(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := Fig9a(testCtx()).String()
	if !strings.Contains(out, "R3-DLA") || !strings.Contains(out, "spec") {
		t.Fatalf("Fig9a incomplete:\n%s", out)
	}
}

func TestSuiteNames(t *testing.T) {
	if len(SuiteNames("all")) != 25 {
		t.Fatal("all-suite name list incomplete")
	}
	if len(SuiteNames("crono")) != 5 {
		t.Fatal("crono suite wrong size")
	}
}

// TestComparatorsAndTrainingAreKeyedRuns: Fig. 9-b's three comparators,
// Fig. 13-b's training-input run, Fig. 11's SMT pair and the Appendix-B
// frontend runs are memoized runs like any other. Each simulates once
// however often it is asked for, under a key no other run shares (the
// SMT pair's included, against the half-core it runs on), only a run
// with a recycle controller reports an LCT, and only the SMT pair
// reports a second copy.
func TestComparatorsAndTrainingAreKeyedRuns(t *testing.T) {
	c := NewContext(2_000)
	p := c.Prep("mcf")
	type run struct {
		p      *Prepared
		opt    core.Options
		budget uint64
	}
	runs := []run{
		{p, core.BFetchOptions(), c.Budget},
		{p, core.SlipStreamOptions(), c.Budget},
		{p, core.CREOptions(), c.Budget},
		{p.Train(), trainOptions, c.Budget / 2},
		{p, core.SMTOptions(), c.Budget / 2},
	}
	for _, opt := range appendixBRuns() {
		runs = append(runs, run{p, opt, c.Budget / 4})
	}
	half := pipeline.HalfConfig()
	keys := map[string]bool{
		RunKey(p.W.Name, core.DLAOptions(), c.Budget):                                            true,
		RunKey(p.W.Name, core.Options{Disable: true, WithBOP: true}, c.Budget):                   true,
		RunKey(p.W.Name, core.Options{Disable: true, WithBOP: true, CoreCfg: &half}, c.Budget/2): true,
	}
	smtKey := RunKey(p.W.Name, core.SMTOptions(), c.Budget/2)
	for i, r := range runs {
		key := RunKey(r.p.W.Name, r.opt, r.budget)
		if keys[key] {
			t.Errorf("%s is already another run's key", key)
		}
		keys[key] = true
		first := c.RunShared(r.p, r.opt, r.budget, nil, nil)
		for range 2 {
			if again := c.RunShared(r.p, r.opt, r.budget, nil, nil); again != first {
				t.Errorf("%s: asking again returned another Results", key)
			}
		}
		if n := c.RunCount(); n != i+1 {
			t.Errorf("%s: %d simulations after %d distinct runs", key, n, i+1)
		}
		if (first.SMT != nil) != (key == smtKey) {
			t.Errorf("%s: reports an SMT copy: %t", key, first.SMT != nil)
		}
	}
	if lct := c.RunShared(p.Train(), trainOptions, c.Budget/2, nil, nil).LCT; lct == nil {
		t.Error("the training run reports no LCT")
	}
	if lct := c.RunCached(p, core.DLAOptions()).LCT; lct != nil {
		t.Errorf("a run without recycling reports LCT %v", lct)
	}
}

// TestOptionKeysKeepTheirBytes pins the keys result stores, journals and
// RunResult.config persist: the comparators' design renders only when
// set, so no other configuration's key moves.
func TestOptionKeysKeepTheirBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  core.Options
		want string
	}{
		{"zero", core.Options{},
			"t1=false,vr=false,fb=false,rc=false,bop=false,stride=false,po=false,dis=false,boq=0,fq=0,vq=0,reboot=0,trial=0"},
		{"DLA", core.DLAOptions(),
			"t1=false,vr=false,fb=false,rc=false,bop=true,stride=false,po=false,dis=false,boq=0,fq=0,vq=0,reboot=0,trial=0"},
		{"R3-DLA", core.R3Options(),
			"t1=true,vr=true,fb=true,rc=true,bop=true,stride=false,po=false,dis=false,boq=0,fq=0,vq=0,reboot=0,trial=0"},
		{"BL+BOP", core.Options{Disable: true, WithBOP: true},
			"t1=false,vr=false,fb=false,rc=false,bop=true,stride=false,po=false,dis=true,boq=0,fq=0,vq=0,reboot=0,trial=0"},
	} {
		if got := tc.opt.Key(); got != tc.want {
			t.Errorf("%s key = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestPreparedImagesArePacked bounds the frozen evaluation images a
// Context keeps for its whole life. Stored at 64 bits a word, the 25
// images take 57.0 MiB; packed at each page's narrowest width, 24.2 MiB;
// frozen, with sparse pages stored sparsely and each distinct page held
// once, 15.1 MiB.
func TestPreparedImagesArePacked(t *testing.T) {
	c := NewContext(2_000)
	var prepared []*Prepared
	for _, w := range workloads.All() {
		prepared = append(prepared, c.Prep(w.Name))
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	slots := 0
	for _, p := range prepared {
		slots += p.Image().Footprint()
	}
	growth := heap() - before
	runtime.KeepAlive(prepared)
	const maxImages = 18 << 20
	pages := c.state.pages.Len()
	t.Logf("the %d evaluation images take %.1f MiB of live heap, %d distinct pages in %d page slots",
		len(prepared), float64(growth)/(1<<20), pages, slots)
	if growth > maxImages {
		t.Errorf("the evaluation images take %d MiB of live heap, want <= %d MiB", growth>>20, maxImages>>20)
	}
	if pages >= slots {
		t.Errorf("the evaluation images hold %d distinct pages in %d page slots, want fewer pages than slots", pages, slots)
	}
}

// sameWords fails t unless got reads every word as want does.
func sameWords(t *testing.T, name string, got, want *emu.Memory) {
	t.Helper()
	for _, pair := range [][2]*emu.Memory{{got, want}, {want, got}} {
		pair[0].NonzeroWords(func(addr, v uint64) {
			if a, b := got.Read(addr), want.Read(addr); a != b {
				t.Fatalf("%s reads %#x at %#x, want %#x", name, a, addr, b)
			}
		})
	}
}

// TestConcurrentImageBuilds builds the 25 evaluation images from four
// goroutines through one Context, so their freezes intern pages into one
// table at once; CI runs it under -race. Each image must read word for
// word what an unfrozen Setup of its workload reads. bfs and sssp share
// a CSR page: a write to it through a fork of either image must leave
// both images and the other fork as they were.
func TestConcurrentImageBuilds(t *testing.T) {
	c := NewContext(2_000)
	names := SuiteNames("all")
	prepared := make([]*Prepared, len(names))
	c.ParallelEach(len(names), func(i int) { prepared[i] = c.Prep(names[i]) })
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range prepared {
				prepared[(i+7*g)%len(prepared)].Image()
			}
		}()
	}
	wg.Wait()
	setup := func(p *Prepared) *emu.Memory {
		m := emu.NewMemory()
		p.Setup(m)
		return m
	}
	for _, p := range prepared {
		sameWords(t, p.W.Name+"'s image", p.Image(), setup(p))
	}

	bfs, sssp := c.Prep("bfs"), c.Prep("sssp")
	var addr uint64
	found := false
	bfs.Image().NonzeroWords(func(a, _ uint64) {
		if !found && bfs.Image().SharesPage(sssp.Image(), a) {
			addr, found = a, true
		}
	})
	if !found {
		t.Fatal("the bfs and sssp images share no page")
	}
	fb, fs := bfs.Image().Fork(), sssp.Image().Fork()
	wantB, wantS := setup(bfs), setup(sssp)
	old := wantB.Read(addr)
	fb.Write(addr, old^1)   // at the page's width
	fs.Write(addr, 1<<40|7) // wider than the page
	sameWords(t, "the bfs image", bfs.Image(), wantB)
	sameWords(t, "the sssp image", sssp.Image(), wantS)
	wantB.Write(addr, old^1)
	wantS.Write(addr, 1<<40|7)
	sameWords(t, "the bfs fork", fb, wantB)
	sameWords(t, "the sssp fork", fs, wantS)
	if !bfs.Image().SharesPage(sssp.Image(), addr) {
		t.Error("the bfs and sssp images no longer share the page their forks wrote")
	}
}
