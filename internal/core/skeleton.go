package core

import (
	"fmt"

	"r3dla/internal/isa"
)

// Skeleton is one generated look-ahead program version: an include mask
// over the static program plus per-PC forced directions for converted
// biased branches (Sec. III-E1).
type Skeleton struct {
	Name    string
	Include []bool
	Force   []int8 // -1 = evaluate; 0 = force not-taken; 1 = force taken
	Size    int    // number of included instructions
}

// Forced returns the forced direction of pc, if any.
func (s *Skeleton) Forced(pc int) (taken bool, ok bool) {
	f := s.Force[pc]
	if f < 0 {
		return false, false
	}
	return f == 1, true
}

// Fraction reports the skeleton's static size as a fraction of the
// program.
func (s *Skeleton) Fraction() float64 {
	if len(s.Include) == 0 {
		return 0
	}
	return float64(s.Size) / float64(len(s.Include))
}

// Set is the full output of skeleton generation for one program: the
// baseline-DLA skeleton, the six recycle versions, and the T1 S-bit marks
// (which annotate the *main* thread's binary, Sec. III-C2).
type Set struct {
	Prog     *isa.Program
	Baseline *Skeleton   // version used by the (non-R3) DLA baseline
	Versions []*Skeleton // the recycle pool (six versions, Sec. III-E1)
	SBits    []bool      // per-PC T1 marks on the MT binary
	SLoop    []int       // loop-branch PC owning each S-marked load (-1)
}

// Generation thresholds (Appendix A and Sec. III-E1).
const (
	seedL1Rate      = 0.01  // memory seed: >1% chance of missing in L1
	seedL2Rate      = 0.001 // memory seed: >0.1% chance of missing in L2
	l1TargetRate    = 0.002 // "L1 prefetch targets" recycle option
	slowLatency     = 20.0  // value-reuse target: >=20 cycle disp-to-exec
	biasThreshold   = 0.999 // biased-branch conversion
	maxStoreLoadGap = 1000  // ignore far store->load deps (Appendix A)
	minBranchExec   = 32    // ignore bias of barely-executed branches
)

// NumVersions is the size of the recycle pool Generate emits (versions
// a–f of Sec. III-E1); Options.FixedVersion must lie in [0, NumVersions).
const NumVersions = 6

// Generate builds the skeleton set for prog using training statistics.
func Generate(prog *isa.Program, prof *Profile) *Set {
	g := newGenerator(prog, prof)

	// Seed categories.
	memSeeds := g.memorySeeds()
	t1Loads := g.t1Loads()
	l1Targets := g.l1Targets()
	valueTargets := g.valueTargets()
	biased := g.biasedBranches()

	memMinus := without(memSeeds, t1Loads)

	set := &Set{
		Prog:  prog,
		SBits: make([]bool, len(prog.Insts)),
		SLoop: make([]int, len(prog.Insts)),
	}
	for i := range set.SLoop {
		set.SLoop[i] = -1
	}
	for pc := range t1Loads {
		set.SBits[pc] = true
		set.SLoop[pc] = prof.LoopBranch[pc]
	}

	// Baseline DLA skeleton: all control + all memory seeds (T1 is an R3
	// optimization; the baseline keeps strided loads in the skeleton).
	set.Baseline = g.build("base", memSeeds, nil)

	// Recycle pool: the "reduced" skeleton (minus T1 loads) combined with
	// the Sec. III-E1 options.
	set.Versions = []*Skeleton{
		g.build("reduced", memMinus, nil),
		g.build("reduced+L1", union(memMinus, l1Targets), nil),
		g.build("reduced+VR", union(memMinus, valueTargets), nil),
		g.build("reduced+bias", memMinus, biased),
		g.build("reduced+T1back", memSeeds, nil),
		g.build("reduced+L1+VR+bias", union(union(memMinus, l1Targets), valueTargets), biased),
	}
	return set
}

// GenerateSlipstream builds a SlipStream-style A-stream skeleton
// (Sundaramoorthy et al.): the full program minus ineffectual work —
// biased branches are converted to unconditional flow, but unlike the DLA
// skeleton every memory instruction stays in, so the leading thread is
// substantially larger (and slower) than DLA's.
func GenerateSlipstream(prog *isa.Program, prof *Profile) *Set {
	g := newGenerator(prog, prof)
	allMem := make(map[int]bool)
	for pc := range prog.Insts {
		if prog.Insts[pc].Op.IsMem() {
			allMem[pc] = true
		}
	}
	// SlipStream removes more aggressively-biased branches (0.99+).
	biased := make(map[int]bool)
	for pc := range prog.Insts {
		if !prog.Insts[pc].Op.IsCondBranch() {
			continue
		}
		st := &prof.PCs[pc]
		if st.Taken+st.NotTaken < minBranchExec {
			continue
		}
		if taken, p := st.Bias(); p >= 0.99 {
			biased[pc] = taken
		}
	}
	s := g.build("slipstream", allMem, biased)
	return &Set{
		Prog:     prog,
		Baseline: s,
		Versions: []*Skeleton{s},
		SBits:    make([]bool, len(prog.Insts)),
		SLoop:    makeNegOnes(len(prog.Insts)),
	}
}

// GenerateCRE builds a Continuous-Runahead-Engine-style chain set
// (Hashemi et al.): only the dependence chains of the delinquent loads
// that dominate L2 misses (plus control flow to steer them). The engine
// produced from it prefetches but supplies no branch outcomes.
func GenerateCRE(prog *isa.Program, prof *Profile) *Set {
	g := newGenerator(prog, prof)
	// Rank loads by absolute L2 miss count; keep those covering 90%.
	var loads []loadMiss
	var total uint64
	for pc := range prog.Insts {
		if prog.Insts[pc].Op.IsLoad() && prof.PCs[pc].L2Miss > 0 {
			loads = append(loads, loadMiss{pc, prof.PCs[pc].L2Miss})
			total += prof.PCs[pc].L2Miss
		}
	}
	sortLoadsByMisses(loads)
	seeds := make(map[int]bool)
	var cum uint64
	for _, l := range loads {
		if total > 0 && cum*10 >= total*9 {
			break
		}
		seeds[l.pc] = true
		cum += l.misses
	}
	s := g.build("cre-chains", seeds, nil)
	return &Set{
		Prog:     prog,
		Baseline: s,
		Versions: []*Skeleton{s},
		SBits:    make([]bool, len(prog.Insts)),
		SLoop:    makeNegOnes(len(prog.Insts)),
	}
}

type loadMiss struct {
	pc     int
	misses uint64
}

func sortLoadsByMisses(loads []loadMiss) {
	for i := 1; i < len(loads); i++ {
		for j := i; j > 0 && loads[j].misses > loads[j-1].misses; j-- {
			loads[j], loads[j-1] = loads[j-1], loads[j]
		}
	}
}

func makeNegOnes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// EmptySkeleton returns a skeleton that executes nothing: the look-ahead
// thread runs no instruction and produces no outcome.
func EmptySkeleton(prog *isa.Program) *Skeleton {
	s := &Skeleton{
		Name:    "empty",
		Include: make([]bool, len(prog.Insts)),
		Force:   make([]int8, len(prog.Insts)),
	}
	for i := range s.Force {
		s.Force[i] = -1
	}
	return s
}

// generator holds the static structures shared by all versions, plus the
// per-build scratch (needAt bitsets and the propagation worklist) reused
// across the seven build calls of one Generate instead of reallocated.
type generator struct {
	prog  *isa.Program
	prof  *Profile
	preds [][]int32

	needAt []uint64 // register-need bitset scratch, cleared per build
	queue  []genWork
}

// genWork is one backward-propagation worklist item of generator.build.
type genWork struct {
	pc  int
	reg uint8
}

func newGenerator(prog *isa.Program, prof *Profile) *generator {
	return &generator{
		prog:   prog,
		prof:   prof,
		preds:  predecessors(prog),
		needAt: make([]uint64, len(prog.Insts)),
	}
}

// predecessors builds the CFG predecessor lists. Fallthrough edges exist
// from every non-terminating instruction (CALL falls through to model the
// eventual return); direct branch/jump/call targets get edges; callee
// entries get edges from their call sites (so callee slices can reach
// caller-computed arguments); and every RET gets edges to every
// call-return point (a conservative over-approximation of the
// interprocedural return edges — without it, slices starting after a call
// can never reach the callee's epilogue, and state the callee restores
// before returning, such as a stack pointer, would be wrongly excluded).
// Indirect jumps (JR) contribute no edges.
func predecessors(prog *isa.Program) [][]int32 {
	preds := make([][]int32, len(prog.Insts))
	add := func(to, from int) {
		if to >= 0 && to < len(preds) {
			preds[to] = append(preds[to], int32(from))
		}
	}
	var returnPoints []int
	var rets []int
	for i := range prog.Insts {
		in := &prog.Insts[i]
		switch in.Op {
		case isa.JMP:
			add(int(in.Targ), i)
		case isa.CALL:
			add(int(in.Targ), i)
			add(i+1, i) // summary edge: the callee eventually returns here
			returnPoints = append(returnPoints, i+1)
		case isa.CALR:
			add(i+1, i)
			returnPoints = append(returnPoints, i+1)
		case isa.RET:
			rets = append(rets, i)
		case isa.JR, isa.HALT:
			// no static target edges
		default:
			if in.Op.IsCondBranch() {
				add(int(in.Targ), i)
			}
			add(i+1, i)
		}
	}
	for _, rp := range returnPoints {
		for _, r := range rets {
			add(rp, r)
		}
	}
	return preds
}

// memorySeeds selects loads exceeding the Appendix A miss thresholds.
func (g *generator) memorySeeds() map[int]bool {
	seeds := make(map[int]bool)
	for pc := range g.prog.Insts {
		if !g.prog.Insts[pc].Op.IsLoad() {
			continue
		}
		st := &g.prof.PCs[pc]
		if st.Exec == 0 {
			continue
		}
		if st.MissRateL1() > seedL1Rate || st.MissRateL2() > seedL2Rate {
			seeds[pc] = true
		}
	}
	return seeds
}

// t1Loads selects the strided in-loop loads that T1 offloads.
func (g *generator) t1Loads() map[int]bool {
	out := make(map[int]bool)
	for pc := range g.prog.Insts {
		if !g.prog.Insts[pc].Op.IsLoad() {
			continue
		}
		st := &g.prof.PCs[pc]
		if st.Strided() && g.prof.LoopBranch[pc] >= 0 {
			out[pc] = true
		}
	}
	return out
}

// l1Targets selects loads for the more aggressive "L1 prefetch targets"
// recycle option.
func (g *generator) l1Targets() map[int]bool {
	out := make(map[int]bool)
	for pc := range g.prog.Insts {
		if !g.prog.Insts[pc].Op.IsLoad() {
			continue
		}
		if g.prof.PCs[pc].MissRateL1() > l1TargetRate {
			out[pc] = true
		}
	}
	return out
}

// valueTargets selects slow instructions with more than one dependent
// (Sec. III-D1: candidates to add back for value reuse).
func (g *generator) valueTargets() map[int]bool {
	out := make(map[int]bool)
	for pc := range g.prog.Insts {
		st := &g.prof.PCs[pc]
		if st.AvgDispExec() >= slowLatency && st.DispExecN >= 16 && g.staticDependents(pc) > 1 {
			out[pc] = true
		}
	}
	return out
}

// staticDependents approximates the number of instructions consuming pc's
// result: uses of the destination register along the fallthrough window
// before redefinition.
func (g *generator) staticDependents(pc int) int {
	dest := g.prog.Insts[pc].Dest()
	if dest == isa.NoReg || dest == isa.RegZero {
		return 0
	}
	n := 0
	var buf [2]uint8
	for i := pc + 1; i < len(g.prog.Insts) && i < pc+24; i++ {
		in := &g.prog.Insts[i]
		for _, s := range in.Sources(buf[:0]) {
			if s == dest {
				n++
			}
		}
		if in.Dest() == dest {
			break
		}
		if in.Op == isa.JMP || in.Op == isa.RET || in.Op == isa.JR || in.Op == isa.HALT {
			break
		}
	}
	return n
}

// biasedBranches selects conditional branches above the bias threshold and
// returns their forced directions.
func (g *generator) biasedBranches() map[int]bool {
	out := make(map[int]bool)
	for pc := range g.prog.Insts {
		if !g.prog.Insts[pc].Op.IsCondBranch() {
			continue
		}
		st := &g.prof.PCs[pc]
		if st.Taken+st.NotTaken < minBranchExec {
			continue
		}
		taken, p := st.Bias()
		if p >= biasThreshold {
			out[pc] = taken
		}
	}
	return out
}

// build produces one skeleton version: control seeds + the given memory
// seeds, with biased branches (if any) converted to forced direction
// (their operand chains are then not needed).
func (g *generator) build(name string, memSeeds, forced map[int]bool) *Skeleton {
	n := len(g.prog.Insts)
	s := &Skeleton{
		Name:    name,
		Include: make([]bool, n),
		Force:   make([]int8, n),
	}
	for i := range s.Force {
		s.Force[i] = -1
	}
	for pc, taken := range forced {
		if taken {
			s.Force[pc] = 1
		} else {
			s.Force[pc] = 0
		}
	}

	// needAt[pc] is a register bitset: the value of reg r is needed at the
	// *exit* of pc.
	needAt := g.needAt
	for i := range needAt {
		needAt[i] = 0
	}
	queue := g.queue[:0]
	addNeed := func(pc int, reg uint8) {
		if pc < 0 || pc >= n || reg == isa.RegZero || reg == isa.NoReg {
			return
		}
		bit := uint64(1) << (reg & 63)
		if needAt[pc]&bit == 0 {
			needAt[pc] |= bit
			queue = append(queue, genWork{pc, reg})
		}
	}

	var include func(pc int)
	needSources := func(pc int) {
		var buf [2]uint8
		for _, r := range g.prog.Insts[pc].Sources(buf[:0]) {
			for _, q := range g.preds[pc] {
				addNeed(int(q), r)
			}
		}
	}
	include = func(pc int) {
		if s.Include[pc] {
			return
		}
		s.Include[pc] = true
		s.Size++
		if s.Force[pc] >= 0 {
			return // forced branch: no operands needed
		}
		needSources(pc)
		// Memory dependences for included loads (Appendix A).
		if g.prog.Insts[pc].Op.IsLoad() {
			for _, spc := range g.prof.MemDeps[pc] {
				if abs(spc-pc) <= maxStoreLoadGap {
					include(spc)
				}
			}
		}
	}

	// Seeds: all control instructions and the memory seeds.
	for pc := range g.prog.Insts {
		if g.prog.Insts[pc].Op.IsControl() {
			include(pc)
		}
	}
	for pc := range memSeeds {
		include(pc)
	}

	// Fixpoint: propagate needs backward to reaching definitions.
	for len(queue) > 0 {
		w := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		in := &g.prog.Insts[w.pc]
		if in.Dest() == w.reg {
			include(w.pc)
			continue // the definition kills further backward propagation
		}
		for _, q := range g.preds[w.pc] {
			addNeed(int(q), w.reg)
		}
	}
	g.queue = queue[:0] // keep the grown worklist for the next build
	return s
}

// Describe summarizes a skeleton for tooling.
func (s *Skeleton) Describe() string {
	forced := 0
	for _, f := range s.Force {
		if f >= 0 {
			forced++
		}
	}
	return fmt.Sprintf("%s: %d/%d insts (%.1f%%), %d forced branches",
		s.Name, s.Size, len(s.Include), 100*s.Fraction(), forced)
}

func union(a, b map[int]bool) map[int]bool {
	out := make(map[int]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func without(a, b map[int]bool) map[int]bool {
	out := make(map[int]bool, len(a))
	for k := range a {
		if !b[k] {
			out[k] = true
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
