package core

import "testing"

// driveLoop feeds the controller n loop-branch commits for loopPC,
// advancing committed/cycles at the given per-iteration IPC.
type rcDriver struct {
	rc        *Recycle
	committed uint64
	cycles    uint64
}

func (d *rcDriver) iterate(loopPC int, insts uint64, ipc float64) {
	d.committed += insts
	d.cycles += uint64(float64(insts) / ipc)
	d.rc.OnLoopBranch(loopPC, d.committed, d.cycles)
}

func TestRecycleSweepsAllVersionsAndPicksFastest(t *testing.T) {
	var switches []int
	rc := NewRecycle(3, func(v int) { switches = append(switches, v) }, nil)
	rc.TrialInsts = 100

	// Version speeds: v0 slow, v1 fastest, v2 middling.
	speed := map[int]float64{0: 0.5, 1: 2.0, 2: 1.0}
	d := &rcDriver{rc: rc}
	for i := 0; i < 60; i++ {
		d.iterate(100, 20, speed[rc.Current()])
	}
	if rc.Current() != 1 {
		t.Fatalf("controller settled on version %d, want 1 (the fastest)", rc.Current())
	}
	if v, ok := rc.lct.lookup(100); !ok || v != 1 {
		t.Fatalf("LCT entry = %d,%v; want 1", v, ok)
	}
}

func TestRecycleUsesLCTOnRevisit(t *testing.T) {
	rc := NewRecycle(2, nil, nil)
	rc.TrialInsts = 50
	speed := map[int]float64{0: 1.0, 1: 3.0}
	d := &rcDriver{rc: rc}
	// Finish loop 1's sweep.
	for i := 0; i < 30; i++ {
		d.iterate(1, 20, speed[rc.Current()])
	}
	if rc.Current() != 1 {
		t.Fatalf("loop 1 settled on %d", rc.Current())
	}
	// Different loop, then revisit loop 1: must jump straight to 1.
	d.iterate(2, 20, 1)
	swBefore := rc.Switches
	d.iterate(1, 20, 1)
	if rc.Current() != 1 {
		t.Fatal("LCT not consulted on revisit")
	}
	if rc.Switches > swBefore+1 {
		t.Fatal("revisit restarted a trial instead of using the LCT")
	}
}

func TestRecycleResumesInterruptedTrial(t *testing.T) {
	rc := NewRecycle(4, nil, nil)
	rc.TrialInsts = 100
	d := &rcDriver{rc: rc}
	// Partial trial on loop 1 (not enough insts to finish a version).
	d.iterate(1, 30, 1)
	d.iterate(1, 30, 1)
	verBefore := rc.trials[1].ver
	// Interleave loop 2.
	d.iterate(2, 30, 1)
	// Return to loop 1: trial must resume, not restart.
	d.iterate(1, 30, 1)
	if rc.trials[1] == nil {
		t.Fatal("trial state dropped on loop interleave")
	}
	if rc.trials[1].ver < verBefore {
		t.Fatal("trial restarted from scratch")
	}
}

func TestRecycleStaticModeNeverTrials(t *testing.T) {
	var switches []int
	rc := NewRecycle(6, func(v int) { switches = append(switches, v) }, nil)
	rc.Static = true
	rc.Preload(1, 4)
	d := &rcDriver{rc: rc}
	for i := 0; i < 50; i++ {
		d.iterate(1, 20, 1)
	}
	if rc.Current() != 4 {
		t.Fatalf("static mode ignored preload: version %d", rc.Current())
	}
	if len(switches) != 1 {
		t.Fatalf("static mode switched %d times, want exactly 1", len(switches))
	}
}

func TestRecycleAccountsUsage(t *testing.T) {
	rc := NewRecycle(2, nil, nil)
	rc.TrialInsts = 100
	d := &rcDriver{rc: rc}
	for i := 0; i < 40; i++ {
		d.iterate(1, 25, 1)
	}
	rc.Finish(d.committed, d.cycles)
	var total uint64
	for _, u := range rc.UseInsts {
		total += u
	}
	if total != d.committed {
		t.Fatalf("usage accounting: %d attributed of %d committed", total, d.committed)
	}
}

func TestRecycleNewLoopCallback(t *testing.T) {
	var loops []int
	rc := NewRecycle(2, nil, func(pc int) { loops = append(loops, pc) })
	d := &rcDriver{rc: rc}
	d.iterate(1, 10, 1)
	d.iterate(1, 10, 1)
	d.iterate(2, 10, 1)
	d.iterate(1, 10, 1)
	want := []int{1, 2, 1}
	if len(loops) != len(want) {
		t.Fatalf("new-loop events %v, want %v", loops, want)
	}
}
