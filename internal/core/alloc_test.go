package core

import "testing"

// The queue hot paths (BOQ and FQ push/pop, SIF insert/delete) run once
// per skeleton-slice hand-off and sit inside the cycle loop, so they must
// not allocate at all in steady state.
func TestQueueOpsAllocFree(t *testing.T) {
	boq := NewBOQ(16)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			boq.Push(i&1 == 0)
		}
		for i := 0; i < 16; i++ {
			boq.Pop()
		}
	}); allocs != 0 {
		t.Errorf("BOQ push/pop allocates %.1f objects per cycle, want 0", allocs)
	}

	fq := NewFQ(16)
	if allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 16; i++ {
			fq.Push(FQEntry{PC: i, Addr: uint64(i) * 64})
		}
		for i := 0; i < 16; i++ {
			fq.Pop()
		}
	}); allocs != 0 {
		t.Errorf("FQ push/pop allocates %.1f objects per cycle, want 0", allocs)
	}

	sif := NewSIF(10)
	if allocs := testing.AllocsPerRun(200, func() {
		for pc := 0; pc < 32; pc++ {
			sif.Insert(pc * 3)
		}
		for pc := 0; pc < 32; pc++ {
			sif.Delete(pc * 3)
		}
	}); allocs != 0 {
		t.Errorf("SIF insert/delete allocates %.1f objects per cycle, want 0", allocs)
	}
}

// Skeleton builds after the first must reuse the generator's scratch
// (needAt marks, work queue): each extra build may allocate only its
// resulting Skeleton, not rebuild the traversal state. The bound is
// deliberately loose — it catches a reintroduced per-node allocation
// (which shows up as thousands), not small constant-factor drift.
func TestSkeletonBuildAllocsBounded(t *testing.T) {
	prog, _, prof, _ := mixProfile()
	g := newGenerator(prog, prof)
	memSeeds := g.memorySeeds()
	biased := g.biasedBranches()
	g.build("warmup", memSeeds, biased)
	allocs := testing.AllocsPerRun(20, func() {
		g.build("steady", memSeeds, biased)
	})
	const maxAllocs = 64
	if allocs > maxAllocs {
		t.Errorf("steady-state skeleton build allocates %.0f objects, want <= %d", allocs, maxAllocs)
	}
}
