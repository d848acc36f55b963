package core

import (
	"testing"

	"r3dla/internal/workloads"
)

// comparatorBudget is the evaluation budget of the Fig. 9-b comparator
// tests.
const comparatorBudget = 40_000

// comparatorPrep profiles a workload on its training input.
func comparatorPrep(t *testing.T, name string) (*workloads.Workload, *Profile) {
	t.Helper()
	w := workloads.ByName(name)
	if w == nil {
		t.Fatalf("workload %s missing", name)
	}
	prog, trainSetup := w.Build(1)
	return w, Collect(prog, trainSetup, comparatorBudget)
}

func TestSlipStreamRuns(t *testing.T) {
	w, prof := comparatorPrep(t, "mcf")
	prog, setup := w.Build(2)
	r := NewSystem(prog, setup, nil, prof, SlipStreamOptions()).Run(comparatorBudget)
	if r.MT.Deadlocked || r.MT.Committed < comparatorBudget {
		t.Fatalf("slipstream run broken: %+v", r.MT)
	}
}

func TestSlipStreamLeaderKeepsAllMemory(t *testing.T) {
	// SlipStream's A-stream keeps every memory instruction (it removes
	// only ineffectual work), unlike the DLA skeleton.
	w, prof := comparatorPrep(t, "mcf")
	prog, _ := w.Build(2)
	ss := GenerateSlipstream(prog, prof)
	for pc := range prog.Insts {
		if prog.Insts[pc].Op.IsMem() && !ss.Baseline.Include[pc] {
			t.Fatalf("memory inst @%d missing from slipstream leader", pc)
		}
	}
	dla := Generate(prog, prof)
	if ss.Baseline.Size < dla.Baseline.Size {
		t.Fatalf("slipstream leader (%d) smaller than the DLA skeleton (%d)",
			ss.Baseline.Size, dla.Baseline.Size)
	}
}

func TestCRERuns(t *testing.T) {
	w, prof := comparatorPrep(t, "mcf")
	prog, setup := w.Build(2)
	r := NewSystem(prog, setup, nil, prof, CREOptions()).Run(comparatorBudget)
	if r.MT.Deadlocked || r.MT.Committed < comparatorBudget {
		t.Fatalf("CRE run broken: committed=%d", r.MT.Committed)
	}
	// CRE's MT predicts for itself: its direction source must never
	// stall fetch on the helper.
	if r.MT.FetchStallBOQ != 0 {
		t.Fatalf("CRE stalled MT fetch %d cycles on helper queue", r.MT.FetchStallBOQ)
	}
}

func TestCREChainsSmallerThanDLASkeleton(t *testing.T) {
	w, prof := comparatorPrep(t, "mcf")
	prog, _ := w.Build(2)
	cre := GenerateCRE(prog, prof)
	dla := Generate(prog, prof)
	if cre.Baseline.Size > dla.Baseline.Size {
		t.Fatalf("CRE chains (%d) should not exceed the DLA skeleton (%d)",
			cre.Baseline.Size, dla.Baseline.Size)
	}
}

// TestBFetchRunsAndPrefetches: B-Fetch is BL+BOP plus branch-directed
// prefetches into the L1D, where BOP (at the L2) issues none.
func TestBFetchRunsAndPrefetches(t *testing.T) {
	w, prof := comparatorPrep(t, "libq")
	prog, setup := w.Build(2)
	r := NewSystem(prog, setup, nil, prof, BFetchOptions()).Run(comparatorBudget)
	if r.MT.Deadlocked || r.MT.Committed < comparatorBudget {
		t.Fatal("bfetch run broken")
	}
	bl := NewSystem(prog, setup, nil, prof, Options{Disable: true, WithBOP: true}).Run(comparatorBudget)
	if got, base := r.MTMem.L1D.PrefIssued, bl.MTMem.L1D.PrefIssued; got == 0 || base != 0 {
		t.Fatalf("L1D prefetches: B-Fetch %d, BL+BOP %d; want some and none", got, base)
	}
}

func TestRivalOrderingOnGather(t *testing.T) {
	// On a gather-dominated workload (sparse matvec) the look-ahead
	// thread runs ahead computing gather addresses, so full DLA should
	// beat the prefetch-only CRE — the paper's Fig. 9-b ordering.
	w, prof := comparatorPrep(t, "cg")
	prog, setup := w.Build(2)
	set := Generate(prog, prof)

	dla := NewSystem(prog, setup, set, prof, DLAOptions()).Run(comparatorBudget)
	cre := NewSystem(prog, setup, nil, prof, CREOptions()).Run(comparatorBudget)
	if dla.IPC() < cre.IPC()*0.95 {
		t.Fatalf("DLA (%.3f) should not lose to CRE (%.3f) on gathers", dla.IPC(), cre.IPC())
	}
}
