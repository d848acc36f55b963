package core

import (
	"context"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// Shared fixture: profiling + skeleton generation are relatively
// expensive, so compute once.
type fixture struct {
	run func(opt Options, budget uint64) *Results
}

var fixtureOnce sync.Once
var fix *fixture

func getFixture() *fixture {
	fixtureOnce.Do(func() {
		prog, setup, prof, set := mixProfile()
		fix = &fixture{
			run: func(opt Options, budget uint64) *Results {
				sys := NewSystem(prog, setup, set, prof, opt)
				return sys.Run(budget)
			},
		}
	})
	return fix
}

const testBudget = 60_000

func TestMTAloneRuns(t *testing.T) {
	r := getFixture().run(Options{Disable: true, WithBOP: true}, testBudget)
	if r.MT.Deadlocked {
		t.Fatal("baseline deadlocked")
	}
	if r.MT.Committed < testBudget {
		t.Fatalf("committed %d < budget", r.MT.Committed)
	}
	if r.IPC() <= 0 {
		t.Fatal("zero IPC")
	}
}

func TestDLARunsAndStaysAligned(t *testing.T) {
	r := getFixture().run(DLAOptions(), testBudget)
	if r.MT.Deadlocked {
		t.Fatal("DLA deadlocked")
	}
	if r.MT.Committed < testBudget {
		t.Fatalf("committed %d < budget", r.MT.Committed)
	}
	// The BOQ-fed direction stream must be overwhelmingly correct:
	// mispredict rate well under the core predictor's.
	wrongPerK := float64(r.BOQWrong) / float64(r.MT.Committed) * 1000
	if wrongPerK > 5 {
		t.Fatalf("BOQ wrong %.2f per kinst: LT diverges too much", wrongPerK)
	}
}

func TestDLASpeedsUpMemoryBoundMix(t *testing.T) {
	f := getFixture()
	base := f.run(Options{Disable: true, WithBOP: true}, testBudget)
	dla := f.run(DLAOptions(), testBudget)
	if dla.IPC() <= base.IPC() {
		t.Fatalf("DLA (%.3f) not faster than baseline (%.3f)", dla.IPC(), base.IPC())
	}
}

func TestR3FasterThanDLA(t *testing.T) {
	f := getFixture()
	dla := f.run(DLAOptions(), testBudget)
	r3 := f.run(R3Options(), testBudget)
	if r3.MT.Deadlocked {
		t.Fatal("R3 deadlocked")
	}
	// R3 should not lose to baseline DLA on the mix workload (the paper's
	// average gain is 1.25x; allow noise but no regression).
	if r3.IPC() < dla.IPC()*0.97 {
		t.Fatalf("R3-DLA (%.3f) slower than DLA (%.3f)", r3.IPC(), dla.IPC())
	}
}

func TestLTExecutesFewerInstructions(t *testing.T) {
	r := getFixture().run(DLAOptions(), testBudget)
	if r.LT == nil {
		t.Fatal("no LT metrics")
	}
	if r.LT.Committed >= r.MT.Committed {
		t.Fatalf("LT committed %d >= MT %d: skeleton not reducing work",
			r.LT.Committed, r.MT.Committed)
	}
	if r.LTSkipped == 0 {
		t.Fatal("LT never skipped a masked instruction")
	}
}

func TestRebootsAreBounded(t *testing.T) {
	r := getFixture().run(DLAOptions(), testBudget)
	// Paper: ~0.6 reboots per 10k instructions on average. Allow a loose
	// bound of 20 per 10k.
	per10k := float64(r.Reboots) / float64(r.MT.Committed) * 10000
	if per10k > 20 {
		t.Fatalf("reboot storm: %.1f per 10k instructions", per10k)
	}
}

func TestT1IssuesPrefetches(t *testing.T) {
	f := getFixture()
	r := f.run(Options{WithBOP: true, T1: true}, testBudget)
	if r.T1Issued == 0 {
		t.Fatal("T1 enabled but issued no prefetches on a strided workload")
	}
}

func TestT1ShrinksLT(t *testing.T) {
	f := getFixture()
	dla := f.run(DLAOptions(), testBudget)
	t1 := f.run(Options{WithBOP: true, T1: true}, testBudget)
	if t1.LT.Committed >= dla.LT.Committed {
		t.Fatalf("T1 did not shrink LT work: %d vs %d", t1.LT.Committed, dla.LT.Committed)
	}
}

func TestValueReuseProducesPredictions(t *testing.T) {
	f := getFixture()
	r := f.run(Options{WithBOP: true, ValueReuse: true}, testBudget)
	if r.MT.ValuePreds == 0 {
		t.Skip("no value predictions on this workload (SIF found no slow insts)")
	}
	// >98% of LT values should match (paper's empirical observation).
	rate := float64(r.MT.ValueMispreds) / float64(r.MT.ValuePreds)
	if rate > 0.1 {
		t.Fatalf("value misprediction rate %.3f too high", rate)
	}
}

func TestRecycleSwitchesSkeletons(t *testing.T) {
	f := getFixture()
	r := f.run(Options{WithBOP: true, Recycle: true}, testBudget)
	if r.SkeletonUse == nil {
		t.Fatal("no skeleton use accounting")
	}
	used := 0
	var total uint64
	for _, u := range r.SkeletonUse {
		if u > 0 {
			used++
		}
		total += u
	}
	if used < 2 {
		t.Fatalf("recycle never tried more than %d versions", used)
	}
	if total == 0 {
		t.Fatal("no instructions attributed to any version")
	}
}

func TestFetchBufferOptionApplies(t *testing.T) {
	f := getFixture()
	r := f.run(Options{WithBOP: true, FetchBuffer: true}, testBudget)
	if r.MT.Deadlocked {
		t.Fatal("deadlock with fetch buffer")
	}
}

func TestNoPrefetcherConfigsRun(t *testing.T) {
	f := getFixture()
	base := f.run(Options{Disable: true}, testBudget)
	dla := f.run(Options{}, testBudget)
	if base.MT.Deadlocked || dla.MT.Deadlocked {
		t.Fatal("noPF configurations deadlocked")
	}
	// Without BOP the baseline is slower than with it (mix is
	// prefetch-friendly in phase 1).
	withBOP := f.run(Options{Disable: true, WithBOP: true}, testBudget)
	if withBOP.IPC() <= base.IPC() {
		t.Fatalf("BOP does not help the baseline: %.3f vs %.3f", withBOP.IPC(), base.IPC())
	}
}

func TestSmallBOQBoundsLookahead(t *testing.T) {
	f := getFixture()
	r := f.run(Options{WithBOP: true, BOQSize: 8}, testBudget)
	if r.MT.Deadlocked {
		t.Fatal("deadlocked with tiny BOQ")
	}
	big := f.run(Options{WithBOP: true, BOQSize: 512}, testBudget)
	// Deeper look-ahead should not be slower (usually faster).
	if big.IPC() < r.IPC()*0.9 {
		t.Fatalf("512-entry BOQ (%.3f) much slower than 8-entry (%.3f)?", big.IPC(), r.IPC())
	}
}

func TestRebootCostMatters(t *testing.T) {
	// Paper: raising reboot cost 64 -> 200 degrades performance < 2%.
	f := getFixture()
	cheap := f.run(DLAOptions(), testBudget)
	opt := DLAOptions()
	opt.RebootCost = 200
	dear := f.run(opt, testBudget)
	if dear.IPC() < cheap.IPC()*0.90 {
		t.Fatalf("reboot cost 200 degraded IPC by >10%%: %.3f vs %.3f", dear.IPC(), cheap.IPC())
	}
}

func TestFixedVersionSelection(t *testing.T) {
	f := getFixture()
	for v := 0; v < NumVersions; v++ {
		opt := Options{WithBOP: true, FixedVersion: v, HasFixedVersion: true}
		r := f.run(opt, testBudget/4)
		if r.MT.Deadlocked {
			t.Fatalf("version %d deadlocked", v)
		}
	}
	// Unset fixed version exercises the baseline-skeleton path.
	r := f.run(Options{WithBOP: true}, testBudget/4)
	if r.MT.Deadlocked {
		t.Fatal("baseline skeleton deadlocked")
	}
}

// TestFixedVersionZeroSelectsReducedSkeleton is the regression test for
// the old sentinel bug: fill() rewrote FixedVersion 0 to -1, so version 0
// (the reduced skeleton) silently ran the baseline skeleton instead. With
// the explicit HasFixedVersion flag, version 0 must be reachable — the
// reduced skeleton strips T1-covered strided loads, so its LT commits
// strictly fewer instructions than the baseline skeleton's.
func TestFixedVersionZeroSelectsReducedSkeleton(t *testing.T) {
	f := getFixture()
	base := f.run(DLAOptions(), testBudget/2)
	opt := DLAOptions()
	opt.FixedVersion, opt.HasFixedVersion = 0, true
	v0 := f.run(opt, testBudget/2)
	if v0.LT == nil || base.LT == nil {
		t.Fatal("missing LT metrics")
	}
	if v0.LT.Committed == base.LT.Committed && v0.LTSkipped == base.LTSkipped {
		t.Fatalf("FixedVersion 0 ran the baseline skeleton (LT committed %d, skipped %d)",
			v0.LT.Committed, v0.LTSkipped)
	}
	if v0.LT.Committed >= base.LT.Committed {
		t.Fatalf("version 0 (reduced) LT committed %d >= baseline skeleton's %d",
			v0.LT.Committed, base.LT.Committed)
	}
}

// TestResultsAreDetached asserts a Results is a snapshot: running its
// System further moves none of the numbers it holds.
func TestResultsAreDetached(t *testing.T) {
	prog, setup, prof, set := mixProfile()
	sys := NewSystem(prog, setup, set, prof, R3Options())
	r := sys.Run(testBudget / 2)
	want := *r
	mt, lt := *r.MT, *r.LT
	want.MT, want.LT, want.SkeletonUse, want.LCT = &mt, &lt, slices.Clone(r.SkeletonUse), maps.Clone(r.LCT)
	if later := sys.Run(testBudget); later.MT.Committed <= mt.Committed {
		t.Fatalf("the continued run committed nothing more (%d)", later.MT.Committed)
	}
	if !reflect.DeepEqual(*r, want) {
		t.Fatalf("an earlier Results moved with its System (MT committed %d, %d when taken)",
			r.MT.Committed, mt.Committed)
	}
}

// TestRunContextCancel asserts a canceled context stops a run early and
// surfaces the context's error, while a nil/background context runs to
// completion.
func TestRunContextCancel(t *testing.T) {
	prog, setup, prof, set := mixProfile()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sys := NewSystem(prog, setup, set, prof, DLAOptions())
	r, err := sys.RunContext(ctx, testBudget)
	if err == nil {
		t.Fatal("RunContext returned nil error on canceled context")
	}
	if r == nil {
		t.Fatal("RunContext returned nil results on cancellation")
	}
	if r.MT.Committed >= testBudget {
		t.Fatalf("canceled run completed the full budget (%d)", r.MT.Committed)
	}
}
