// Package core implements the paper's contribution: the Decoupled
// Look-Ahead architecture (baseline DLA) and the four R3 optimizations —
// T1 strided-prefetch offloading (reduce), value reuse and fetch-buffer
// control-flow reuse (reuse), and skeleton recycling (recycle).
//
// The package is organized as:
//
//	profile.go    – training-run profiling (Appendix A inputs)
//	skeleton.go   – skeleton generation: seeds + backward dependence closure
//	queues.go     – BOQ and FQ
//	t1.go         – the T1 prefetch FSM
//	valuereuse.go – SIF (slow-instruction filter) and the value queue
//	recycle.go    – loop detection, trial controller, LCT
//	feeder.go     – the look-ahead skeleton walker
//	system.go     – the two-core DLA system driver
//
// Concurrency: a System (and everything it owns — cores, caches, queues)
// is single-goroutine, but the artifacts of preparation (Profile, Set,
// Skeleton, and the isa.Program they annotate) are immutable once built,
// so one prepared workload may back any number of Systems running in
// parallel goroutines. The experiment harness relies on this to share
// preparation across concurrent runs.
package core

import (
	"r3dla/internal/branch"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/memsys"
	"r3dla/internal/pipeline"
)

// PCStat aggregates per-static-instruction training statistics.
type PCStat struct {
	Exec       uint64
	L1Miss     uint64 // load accesses supplied by L2 or below
	L2Miss     uint64 // load accesses supplied by L3 or below
	Taken      uint64
	NotTaken   uint64
	DispExec   uint64 // sum of dispatch-to-execute latencies
	DispExecN  uint64
	StrideHits uint64 // consecutive same-stride pairs
	StrideObs  uint64 // observed consecutive pairs
}

// Bias returns the dominant-direction probability of a branch PC.
func (s *PCStat) Bias() (taken bool, p float64) {
	t, n := float64(s.Taken), float64(s.NotTaken)
	if t+n == 0 {
		return false, 0
	}
	if t >= n {
		return true, t / (t + n)
	}
	return false, n / (t + n)
}

// MissRateL1 returns the L1 demand miss ratio of a load PC.
func (s *PCStat) MissRateL1() float64 {
	if s.Exec == 0 {
		return 0
	}
	return float64(s.L1Miss) / float64(s.Exec)
}

// MissRateL2 returns the L2 miss ratio of a load PC.
func (s *PCStat) MissRateL2() float64 {
	if s.Exec == 0 {
		return 0
	}
	return float64(s.L2Miss) / float64(s.Exec)
}

// AvgDispExec returns the mean dispatch-to-execute latency of the PC.
func (s *PCStat) AvgDispExec() float64 {
	if s.DispExecN == 0 {
		return 0
	}
	return float64(s.DispExec) / float64(s.DispExecN)
}

// Strided reports whether the PC's address stream is dominantly strided.
func (s *PCStat) Strided() bool {
	return s.StrideObs >= 8 && float64(s.StrideHits) >= 0.9*float64(s.StrideObs)
}

// Profile holds the result of a training run (the paper uses training
// inputs; callers pass a differently-seeded instance of the workload).
type Profile struct {
	PCs []PCStat

	// MemDeps maps a load PC to the store PCs observed feeding it
	// (bounded; used for skeleton memory dependences).
	MemDeps map[int][]int

	// LoopBranch[pc] = innermost enclosing backward-branch PC, or -1.
	LoopBranch []int

	Insts uint64
}

type strideTrack struct {
	last   uint64
	stride int64
	have   bool
	have2  bool
}

// Collect runs prog for budget instructions on a baseline core (Table I +
// BOP) gathering the per-PC statistics the skeleton generator needs.
// setup, if non-nil, initializes data memory before the run.
func Collect(prog *isa.Program, setup func(*emu.Memory), budget uint64) *Profile {
	p := &Profile{
		PCs:        make([]PCStat, len(prog.Insts)),
		MemDeps:    make(map[int][]int),
		LoopBranch: innermostLoops(prog),
	}

	mem := emu.NewMemory()
	if setup != nil {
		setup(mem)
	}
	mach := emu.NewMachine(prog, mem)
	feed := &pipeline.MachineFeeder{M: mach, Budget: budget}
	dir := &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
	priv := memsys.NewPrivate(memsys.NewShared(), memsys.Options{WithBOP: true})
	coreC := pipeline.New(pipeline.DefaultConfig(), feed, dir, priv.L1I, priv.L1D)

	lastStore := make(map[uint64]int) // word -> store PC
	strides := make([]strideTrack, len(prog.Insts))

	loadHook := priv.LoadHook()
	coreC.Hooks.OnLoadAccess = func(d *emu.DynInst, level int, done, now uint64) {
		loadHook(d, level, done, now)
		st := &p.PCs[d.PC]
		if level >= 2 {
			st.L1Miss++
		}
		if level >= 3 {
			st.L2Miss++
		}
	}
	coreC.Hooks.OnIssue = func(d *emu.DynInst, dispatchCycle, execDone uint64) {
		st := &p.PCs[d.PC]
		st.DispExec += execDone - dispatchCycle
		st.DispExecN++
	}
	coreC.Hooks.OnCommit = func(d *emu.DynInst, now uint64) {
		st := &p.PCs[d.PC]
		st.Exec++
		op := d.In.Op
		switch {
		case op.IsCondBranch():
			if d.Taken {
				st.Taken++
			} else {
				st.NotTaken++
			}
		case op.IsLoad():
			if spc, ok := lastStore[d.EA>>3]; ok {
				addMemDep(p.MemDeps, d.PC, spc)
			}
			tr := &strides[d.PC]
			if tr.have {
				s := int64(d.EA) - int64(tr.last)
				if tr.have2 {
					st.StrideObs++
					if s == tr.stride {
						st.StrideHits++
					}
				}
				tr.stride = s
				tr.have2 = true
			}
			tr.last = d.EA
			tr.have = true
		case op.IsStore():
			lastStore[d.EA>>3] = d.PC
		}
	}

	m := coreC.Run(budget)
	p.Insts = m.Committed
	return p
}

// addMemDep records a store PC feeding a load PC (bounded set of 4).
func addMemDep(deps map[int][]int, loadPC, storePC int) {
	l := deps[loadPC]
	for _, s := range l {
		if s == storePC {
			return
		}
	}
	if len(l) < 4 {
		deps[loadPC] = append(l, storePC)
	}
}

// innermostLoops computes, for every instruction, the PC of the innermost
// enclosing static loop (a backward conditional branch b with
// target <= pc <= b), or -1.
func innermostLoops(prog *isa.Program) []int {
	out := make([]int, len(prog.Insts))
	for i := range out {
		out[i] = -1
	}
	type loop struct{ lo, hi int }
	var loops []loop
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if in.Op.IsCondBranch() && int(in.Targ) <= i {
			loops = append(loops, loop{int(in.Targ), i})
		}
	}
	// Innermost = smallest containing span.
	for pc := range out {
		best := -1
		bestSpan := 1 << 30
		for _, l := range loops {
			if l.lo <= pc && pc <= l.hi && l.hi-l.lo < bestSpan {
				best = l.hi
				bestSpan = l.hi - l.lo
			}
		}
		out[pc] = best
	}
	return out
}

// LoopBranches returns the set of loop-branch PCs of the program.
func LoopBranches(prog *isa.Program) map[int]bool {
	set := make(map[int]bool)
	for i := range prog.Insts {
		in := &prog.Insts[i]
		if in.Op.IsCondBranch() && int(in.Targ) <= i {
			set[i] = true
		}
	}
	return set
}

// LoopSet returns the PCs the recycle controller treats as loop branches:
// static backward branches plus hot call sites outside any static loop
// (standing in for recursive functions, Sec. III-E2).
func LoopSet(prog *isa.Program, prof *Profile) map[int]bool {
	set := LoopBranches(prog)
	for pc := range prog.Insts {
		in := &prog.Insts[pc]
		if (in.Op == isa.CALL || in.Op == isa.CALR) &&
			prof.PCs[pc].Exec >= 64 && prof.LoopBranch[pc] < 0 {
			set[pc] = true
		}
	}
	return set
}
