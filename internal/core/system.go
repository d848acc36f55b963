package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"r3dla/internal/branch"
	"r3dla/internal/cache"
	"r3dla/internal/dram"
	"r3dla/internal/emu"
	"r3dla/internal/isa"
	"r3dla/internal/memsys"
	"r3dla/internal/pipeline"
)

// Options selects the DLA system configuration. The zero value is the
// baseline DLA of Sec. III-A; enabling all four R3 flags yields R3-DLA.
// SlipStreamOptions, CREOptions and BFetchOptions select the designs
// Fig. 9-b compares against instead, and SMTOptions Fig. 11's SMT pair.
type Options struct {
	T1          bool        // reduce: offload strided prefetch to the T1 FSM
	ValueReuse  bool        // reuse: SIF-filtered value predictions through the VQ
	FetchBuffer bool        // reuse: FetchBufferSize-entry MT fetch buffer driven by the BOQ
	Recycle     bool        // recycle: online skeleton cycling
	StaticLCT   map[int]int // preloaded loop->version table (offline tuning)

	WithBOP    bool // BOP at L2 of both cores
	WithStride bool // tuned stride prefetcher at MT L1 (fig12 comparator)

	// FixedVersion, when HasFixedVersion is set and recycling is off,
	// runs LT on that recycle-pool version instead of the baseline
	// skeleton. The explicit flag replaces the old "0 means unset"
	// convention, under which version 0 (the reduced skeleton) was
	// unselectable.
	FixedVersion    int
	HasFixedVersion bool

	BOQSize    int    // default DefaultBOQSize
	FQSize     int    // default DefaultFQSize (prefetch + indirect hints)
	VQSize     int    // default DefaultVQSize (value payloads)
	RebootCost uint64 // default DefaultRebootCost cycles
	TrialInsts uint64 // recycle measurement window (default DefaultTrialInsts)

	CoreCfg *pipeline.Config // MT core; nil = Table I default
	LTCfg   *pipeline.Config // LT core; nil = same as CoreCfg

	// PrefetchOnly models CRE-style helpers: the leading thread's work
	// only prefetches (into the MT's L1); the MT uses its own branch
	// predictor, and BOQ entries serve purely as a divergence check that
	// resynchronizes the helper.
	PrefetchOnly bool

	// Disable spawns no look-ahead thread at all; the MT runs alone on
	// its own predictor (used by harness baselines sharing this driver).
	Disable bool

	design design // a Fig. 9-b comparator or the SMT pair; set only by its constructor
}

// design selects a Fig. 9-b comparator or Fig. 11's SMT pair, which
// NewSystemWithMemory then builds instead of a DLA system. A byte fits
// in Options' trailing padding, so the struct keeps its size.
type design uint8

const (
	designDLA design = iota
	designSlipStream
	designCRE
	designBFetch
	designSMT
)

var designNames = [...]string{designSlipStream: "slipstream", designCRE: "cre", designBFetch: "bfetch", designSMT: "smt"}

// The DLA sizings of Table I. A zero size in Options means its default;
// the estimator tiers and Table I read the same constants.
const (
	DefaultBOQSize    = 512
	DefaultFQSize     = 128
	DefaultVQSize     = 32
	DefaultRebootCost = 64   // cycles
	FetchBufferSize   = 32   // MT fetch-buffer entries when FetchBuffer is on
	DefaultTrialInsts = 4000 // committed MT instructions per recycle trial
)

func (o *Options) fill() {
	if o.BOQSize == 0 {
		o.BOQSize = DefaultBOQSize
	}
	if o.FQSize == 0 {
		o.FQSize = DefaultFQSize
	}
	if o.VQSize == 0 {
		o.VQSize = DefaultVQSize
	}
	if o.RebootCost == 0 {
		o.RebootCost = DefaultRebootCost
	}
}

// Key renders the options as the canonical configuration key: equal
// keys mean identical simulation semantics. It is the one name of a
// configuration; run memos, result stores, sweep journals and
// RunResult.config all persist it, so its bytes must not change.
func (o Options) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "t1=%t,vr=%t,fb=%t,rc=%t,bop=%t,stride=%t,po=%t,dis=%t",
		o.T1, o.ValueReuse, o.FetchBuffer, o.Recycle, o.WithBOP, o.WithStride, o.PrefetchOnly, o.Disable)
	fmt.Fprintf(&b, ",boq=%d,fq=%d,vq=%d,reboot=%d,trial=%d",
		o.BOQSize, o.FQSize, o.VQSize, o.RebootCost, o.TrialInsts)
	if o.HasFixedVersion {
		fmt.Fprintf(&b, ",v=%d", o.FixedVersion)
	}
	if o.StaticLCT != nil {
		loops := make([]int, 0, len(o.StaticLCT))
		for l := range o.StaticLCT {
			loops = append(loops, l)
		}
		sort.Ints(loops)
		b.WriteString(",lct=")
		for i, l := range loops {
			if i > 0 {
				b.WriteByte('|')
			}
			fmt.Fprintf(&b, "%d:%d", l, o.StaticLCT[l])
		}
	}
	if o.CoreCfg != nil {
		fmt.Fprintf(&b, ",core={%+v}", *o.CoreCfg)
	}
	if o.LTCfg != nil {
		fmt.Fprintf(&b, ",ltcore={%+v}", *o.LTCfg)
	}
	if o.design != designDLA {
		b.WriteString(",design=" + designNames[o.design])
	}
	return b.String()
}

// R3Options returns the full R3-DLA configuration.
func R3Options() Options {
	return Options{T1: true, ValueReuse: true, FetchBuffer: true, Recycle: true, WithBOP: true}
}

// DLAOptions returns the baseline DLA configuration (with BOP, as in the
// paper's default comparison).
func DLAOptions() Options {
	return Options{WithBOP: true}
}

// SlipStreamOptions returns the SlipStream comparator of Fig. 9-b: the
// leader thread runs the A-stream (GenerateSlipstream) instead of the
// DLA skeleton.
func SlipStreamOptions() Options {
	return Options{WithBOP: true, design: designSlipStream}
}

// CREOptions returns the Continuous Runahead Engine comparator of Fig.
// 9-b: chains of delinquent loads (GenerateCRE) prefetching into the MT's
// L1, with no branch outcome delivery. The helper runs on a small
// runahead engine (the original is a 2-wide, 32-entry buffer at the
// memory controller), not a full core.
func CREOptions() Options {
	engine := pipeline.DefaultConfig()
	engine.FetchWidth, engine.DecodeWidth, engine.IssueWidth, engine.CommitWidth = 4, 2, 2, 2
	engine.ROB, engine.LSQ = 32, 16
	engine.IntFUs, engine.MemFUs, engine.FPFUs = 2, 2, 1
	return Options{WithBOP: true, PrefetchOnly: true, LTCfg: &engine, design: designCRE}
}

// BFetchOptions returns the B-Fetch comparator of Fig. 9-b: the baseline
// core (BL+BOP) with a B-Fetch prefetcher at its L1D.
func BFetchOptions() Options {
	return Options{Disable: true, WithBOP: true, design: designBFetch}
}

// SMTOptions returns the SMT usage point of Fig. 11 (Sec. IV-B3): two
// copies of the program, each on a half-core, sharing one private cache
// stack. The budget counts both copies' commits, and Results.SMT carries
// the second copy's metrics.
func SMTOptions() Options {
	half := pipeline.HalfConfig()
	return Options{Disable: true, WithBOP: true, CoreCfg: &half, design: designSMT}
}

// Results is a DLA run's observables, snapshotted when the run ends. It
// shares no memory with the System that produced it: a kept Results (the
// run memo keeps one per distinct cell) costs its counters, not the
// simulated machine behind them.
type Results struct {
	MT, LT *pipeline.Metrics // LT is nil without a look-ahead thread
	SMT    *pipeline.Metrics // the SMT pair's second copy; nil outside SMTOptions

	Reboots         uint64
	WatchdogReboots uint64 // forced resyncs after MT starvation
	BOQWrong        uint64 // BOQ-fed predictions that proved wrong
	FQDrops         uint64
	VQDrops         uint64
	LTSkipped       uint64 // masked-off instructions (fetch-deleted)
	T1Issued        uint64
	SIFInserts      uint64
	SIFDeletes      uint64
	SkeletonUse     []uint64 // committed MT insts attributed per version

	// MTStridedL1Misses counts MT loads supplied from L2 or beyond at PCs
	// the training profile marks strided (Table III's split; the rest of
	// MT.LoadLevelHits[2:] are the other misses).
	MTStridedL1Misses uint64

	MTMem, LTMem memsys.Stats // each core's private L1I/L1D/L2 counters; LTMem is zero without an LT
	L3           cache.Stats
	DRAM         dram.Stats

	// LCT is the recycle controller's loop->version table when the run
	// ends, nil without one. Fig. 13-b learns it on the training input and
	// preloads it as StaticLCT.
	LCT map[int]int
}

// IPC reports the MT (architectural) IPC.
func (r *Results) IPC() float64 { return r.MT.IPC() }

// System couples a look-ahead core and a main core through the BOQ/FQ.
type System struct {
	opt  Options
	prog *isa.Program
	set  *Set
	prof *Profile

	shared *memsys.Shared
	mtMem  *memsys.Private
	ltMem  *memsys.Private

	mtMach *emu.Machine
	ltMach *emu.Machine
	ltOver *emu.Overlay

	mtFeed *pipeline.MachineFeeder
	ltFeed *SkeletonFeeder

	mt  *pipeline.Core
	lt  *pipeline.Core
	smt *pipeline.Core // the SMT pair's second copy, on the MT's cache stack

	boq *BOQ
	fq  *FQ // prefetch hints (epoch-released) + shares capacity with ind
	ind *FQ // indirect target hints
	vq  *FQ // value payloads (the VPT)

	t1  *T1
	sif *SIF
	rc  *Recycle

	// SIF training window state. sifInserted is generation-stamped per
	// PC: a slot is "inserted this window" iff it equals sifGen, so a new
	// training window is opened by bumping the generation instead of
	// allocating a fresh map (the seed reallocated one per loop change).
	sifLoop     int
	sifIters    int
	sifInserted []uint32
	sifGen      uint32

	loopMask []bool // loopMask[pc]: recycle-relevant loop branch (hot-path LoopSet)

	pendingMismatch bool
	rebootAt        uint64
	rebootArmed     bool
	ltStallUntil    uint64

	// Watchdog: a diverged LT can wander into a loop that commits no
	// conditional branches (e.g. chasing a garbage return address), which
	// would starve the MT forever — the BOQ mismatch detector never fires
	// because no outcomes arrive. The watchdog reboots the LT whenever
	// the MT has made no progress for a long window.
	wdLastCommitted uint64
	wdStall         uint64

	now uint64
	res Results // the counters the cycle loop bumps; Results fills the rest
}

// watchdogWindow is the no-MT-progress window (cycles) that forces an LT
// resynchronization.
const watchdogWindow = 15_000

// NewSystem builds a DLA system for prog. setup initializes data memory;
// set/prof come from Generate/Collect on the training input. The
// SlipStream and CRE designs build their own leader set from prog and
// prof instead of set.
func NewSystem(prog *isa.Program, setup func(*emu.Memory), set *Set, prof *Profile, opt Options) *System {
	image := emu.NewMemory()
	if setup != nil {
		setup(image)
	}
	return NewSystemWithMemory(prog, image, set, prof, opt)
}

// NewSystemWithMemory is NewSystem over an initialized data-memory image
// that no one writes any more: each copy of the program runs on its own
// copy-on-write fork of it (emu.Memory.Fork), and the LT overlays the
// MT's. The experiment harness passes a prepared workload's frozen image,
// so workload setup is a one-time cost instead of a per-run one.
func NewSystemWithMemory(prog *isa.Program, image *emu.Memory, set *Set, prof *Profile, opt Options) *System {
	opt.fill()
	cfg := pipeline.DefaultConfig()
	if opt.CoreCfg != nil {
		cfg = *opt.CoreCfg
	}
	mtCfg := cfg
	if opt.FetchBuffer {
		mtCfg.FetchBufSize = FetchBufferSize
	}
	if opt.ValueReuse {
		mtCfg.SkipValidation = true
	}
	switch opt.design {
	case designSlipStream:
		set = GenerateSlipstream(prog, prof)
	case designCRE:
		set = GenerateCRE(prog, prof)
	}

	s := &System{opt: opt, prog: prog, set: set, prof: prof, sifLoop: -1}

	s.shared = memsys.NewShared()
	s.mtMem = memsys.NewPrivate(s.shared, memsys.Options{WithBOP: opt.WithBOP, WithStride: opt.WithStride})
	mem := image.Fork()
	s.mtMach = emu.NewMachine(prog, mem)

	s.boq = NewBOQ(opt.BOQSize)
	s.fq = NewFQ(opt.FQSize * 3 / 4)
	s.ind = NewFQ(opt.FQSize / 4)
	s.vq = NewFQ(opt.VQSize)
	s.sif = NewSIF(8)
	s.sifInserted = make([]uint32, len(prog.Insts))
	s.sifGen = 1
	s.loopMask = make([]bool, len(prog.Insts))
	for pc := range LoopSet(prog, prof) {
		s.loopMask[pc] = true
	}

	// Main thread core.
	s.mtFeed = &pipeline.MachineFeeder{M: s.mtMach}
	var mtDir pipeline.DirectionSource
	var bf *bFetch
	switch {
	case opt.design == designBFetch:
		bf = newBFetch(&pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}, s.mtMem.L1D)
		mtDir = bf
	case opt.Disable:
		mtDir = &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
	default:
		mtDir = &boqSource{s: s, fallback: &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}}
	}
	s.mt = pipeline.New(mtCfg, s.mtFeed, mtDir, s.mtMem.L1I, s.mtMem.L1D)

	mtLoad := s.mtMem.LoadHook()
	s.mt.Hooks.OnLoadAccess = func(d *emu.DynInst, level int, done, now uint64) {
		mtLoad(d, level, done, now)
		if level < 2 {
			return
		}
		if s.t1 != nil {
			s.t1.NoteMissLatency(done - now)
		}
		if s.prof.PCs[d.PC].Strided() {
			s.res.MTStridedL1Misses++
		}
	}
	if bf != nil {
		inner := s.mt.Hooks.OnLoadAccess
		s.mt.Hooks.OnLoadAccess = func(d *emu.DynInst, level int, done, now uint64) {
			inner(d, level, done, now)
			bf.train(d)
		}
	}
	s.mt.Hooks.OnCommit = s.onMTCommit
	s.mt.Hooks.OnBranchResolve = s.onMTResolve
	if opt.ValueReuse {
		s.mt.Vals = &valueSource{s: s}
		s.mt.Hooks.OnIssue = s.onMTIssue
	}
	if !opt.Disable {
		if !opt.PrefetchOnly {
			s.mt.Hooks.TargetHint = s.targetHint // CRE supplies no targets
		}
		s.mt.Hooks.FetchTag = func() uint64 { return s.boq.PopIndex() }
	}

	if opt.design == designSMT {
		feed := &pipeline.MachineFeeder{M: emu.NewMachine(prog, image.Fork())}
		dir := &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
		s.smt = pipeline.New(mtCfg, feed, dir, s.mtMem.L1I, s.mtMem.L1D)
		s.smt.Hooks.OnLoadAccess = mtLoad
	}
	if opt.Disable {
		return s
	}

	// Look-ahead core.
	s.ltMem = memsys.NewPrivate(s.shared, memsys.Options{WithBOP: opt.WithBOP, DiscardDirty: true})
	s.ltOver = emu.NewOverlay(mem)
	s.ltMach = emu.NewMachine(prog, s.ltOver)
	skel := s.pickInitialSkeleton()
	s.ltFeed = NewSkeletonFeeder(s.ltMach, skel)
	ltDir := &pipeline.TageSource{P: branch.NewPredictor(branch.DefaultConfig())}
	ltCfg := cfg
	if opt.LTCfg != nil {
		ltCfg = *opt.LTCfg
	}
	s.lt = pipeline.New(ltCfg, s.ltFeed, ltDir, s.ltMem.L1I, s.ltMem.L1D)
	ltLoad := s.ltMem.LoadHook()
	s.lt.Hooks.OnLoadAccess = func(d *emu.DynInst, level int, done, now uint64) {
		ltLoad(d, level, done, now)
		if level >= 2 {
			s.fq.Push(FQEntry{Kind: FQL1Prefetch, PC: d.PC, Addr: d.EA, Epoch: s.boq.PushIndex()})
		}
	}
	s.lt.Hooks.OnCommit = s.onLTCommit

	if opt.T1 {
		s.t1 = NewT1(16, s.mtMem.L1D)
	}
	if opt.Recycle || opt.StaticLCT != nil {
		s.rc = NewRecycle(len(set.Versions), s.onSkeletonSwitch, nil)
		if opt.TrialInsts > 0 {
			s.rc.TrialInsts = opt.TrialInsts
		}
		if opt.StaticLCT != nil {
			s.rc.Static = true
			// Preload in sorted order: LCT insertion stamps LRU state, so
			// map-iteration order would make later evictions (and thus the
			// whole run) nondeterministic.
			loops := make([]int, 0, len(opt.StaticLCT))
			for loop := range opt.StaticLCT {
				loops = append(loops, loop)
			}
			sort.Ints(loops)
			for _, loop := range loops {
				s.rc.Preload(loop, opt.StaticLCT[loop])
			}
		}
	}
	return s
}

func (s *System) pickInitialSkeleton() *Skeleton {
	if s.opt.Recycle || s.opt.StaticLCT != nil {
		return s.set.Versions[0]
	}
	if s.opt.HasFixedVersion && s.opt.FixedVersion >= 0 && s.opt.FixedVersion < len(s.set.Versions) {
		return s.set.Versions[s.opt.FixedVersion]
	}
	if s.opt.T1 {
		return s.set.Versions[0] // the reduced skeleton
	}
	return s.set.Baseline
}

// ---------------------------------------------------------------- hooks

// boqSource feeds MT branch directions from the BOQ (Sec. III-A).
type boqSource struct {
	s        *System
	fallback *pipeline.TageSource
}

func (b *boqSource) PredictAndTrain(pc int, actual bool, now uint64) (bool, bool) {
	s := b.s
	if s.opt.PrefetchOnly {
		// CRE mode: the MT predicts for itself; a popped mismatch only
		// resynchronizes the helper thread.
		pred, _ := b.fallback.PredictAndTrain(pc, actual, now)
		if e, ok := s.boq.Pop(); ok {
			s.releaseHints(e.Index+hintLead, now)
			if e.Taken != actual && !s.rebootArmed {
				s.res.BOQWrong++
				s.rebootAt = now + 1
				s.rebootArmed = true
			}
		}
		return pred, true
	}
	if e, ok := s.boq.Pop(); ok {
		s.releaseHints(e.Index+hintLead, now)
		if e.Taken != actual {
			s.res.BOQWrong++
			s.pendingMismatch = true
		}
		return e.Taken, true
	}
	if s.ltDead() {
		return b.fallback.PredictAndTrain(pc, actual, now)
	}
	return false, false
}

// hintLead releases prefetch hints a few basic blocks before the MT
// reaches the hint's program position, covering the L3-to-L1 pull latency
// while still bounding how early (and thus how polluting) a prefetch can
// be — the just-in-time release of Sec. III-A with a small lead.
const hintLead = 4

// releaseHints issues the just-in-time L1 prefetches associated with BOQ
// entries up to (and including) epoch.
func (s *System) releaseHints(epoch uint64, now uint64) {
	for {
		e, ok := s.fq.Peek()
		if !ok || e.Epoch > epoch {
			return
		}
		s.fq.Pop()
		if e.Kind == FQL1Prefetch {
			s.mtMem.L1D.Access(e.Addr, false, true, now)
		}
	}
}

// matchFQ aligns an FQ stream with a dynamic MT instance: entries whose
// epoch predates the instance's fetch epoch (d.Tag) are stale (their MT
// instance passed without consuming them, e.g. after drops) and are
// discarded; a head with the same epoch and PC is the matching payload.
func matchFQ(q *FQ, d *emu.DynInst) (FQEntry, bool) {
	for {
		e, ok := q.Peek()
		if !ok {
			return FQEntry{}, false
		}
		if e.Epoch < d.Tag {
			q.Pop() // stale
			continue
		}
		if e.Epoch == d.Tag && e.PC == d.PC {
			q.Pop()
			return e, true
		}
		return FQEntry{}, false
	}
}

// targetHint serves indirect branch targets recorded by LT.
func (s *System) targetHint(d *emu.DynInst) (int, bool) {
	e, ok := matchFQ(s.ind, d)
	if !ok {
		return 0, false
	}
	return int(e.Addr), true
}

// valueSource serves LT-computed values in program order (Sec. III-D1).
type valueSource struct{ s *System }

func (v *valueSource) Lookup(d *emu.DynInst) (uint64, bool) {
	e, ok := matchFQ(v.s.vq, d)
	if !ok {
		return 0, false
	}
	return e.Addr, true
}

func (v *valueSource) OnOutcome(d *emu.DynInst, correct bool) {
	if !correct {
		v.s.sif.Delete(d.PC)
	}
}

// onMTIssue trains the SIF during the first iterations of a loop.
func (s *System) onMTIssue(d *emu.DynInst, dispatchCycle, execDone uint64) {
	if s.sifIters <= 0 || !d.HasVal {
		return
	}
	if execDone-dispatchCycle < uint64(slowLatency) {
		return
	}
	if s.sifInserted[d.PC] == s.sifGen {
		return
	}
	s.sifInserted[d.PC] = s.sifGen
	s.sif.Insert(d.PC)
}

func (s *System) onMTCommit(d *emu.DynInst, now uint64) {
	op := d.In.Op
	pc := d.PC

	if s.t1 != nil && s.set.SBits[pc] && op.IsMem() {
		s.t1.Observe(pc, s.set.SLoop[pc], d.EA, now)
	}
	if op.IsCondBranch() && s.loopMask[pc] {
		if s.t1 != nil && !d.Taken {
			s.t1.OnLoopEnd(pc)
		}
		s.onLoopBranchCommit(pc)
	} else if (op == isa.CALL || op == isa.CALR) && s.loopMask[pc] {
		s.onLoopBranchCommit(pc)
	}
}

// onLoopBranchCommit advances SIF training windows and the recycle
// controller.
func (s *System) onLoopBranchCommit(pc int) {
	if s.opt.ValueReuse {
		if pc != s.sifLoop {
			s.sifLoop = pc
			s.sif.Clear()
			s.sifGen++
			s.sifIters = 8
		} else if s.sifIters > 0 {
			s.sifIters--
		}
	}
	if s.rc != nil {
		s.rc.OnLoopBranch(pc, s.mt.M.Committed, s.mt.M.Cycles)
	}
}

// onMTResolve schedules a look-ahead reboot when a BOQ-fed direction
// proves wrong (Sec. III-A: "we will reboot LT from the current state of
// MT").
func (s *System) onMTResolve(d *emu.DynInst, mispredicted bool, at uint64) {
	if !mispredicted || !d.In.Op.IsCondBranch() || !s.pendingMismatch {
		return
	}
	s.pendingMismatch = false
	if !s.rebootArmed || at < s.rebootAt {
		s.rebootAt = at
		s.rebootArmed = true
	}
}

func (s *System) onLTCommit(d *emu.DynInst, now uint64) {
	op := d.In.Op
	switch {
	case op.IsCondBranch():
		s.boq.Push(d.Taken)
	case op.IsIndirect():
		s.ind.Push(FQEntry{Kind: FQIndirect, PC: d.PC, Addr: uint64(d.NextPC), Epoch: s.boq.PushIndex()})
	}
	if s.opt.ValueReuse && d.HasVal && s.sif.Contains(d.PC) {
		s.vq.Push(FQEntry{Kind: FQValue, PC: d.PC, Addr: d.Val, Epoch: s.boq.PushIndex()})
	}
}

func (s *System) onSkeletonSwitch(version int) {
	s.ltFeed.SetSkeleton(s.set.Versions[version])
	// A version switch changes which dataflow the LT maintains; registers
	// produced by newly-included chains would be stale until the next
	// natural reinitialization. Resynchronize the LT from the MT (a
	// reboot), exactly as the divergence path does.
	if !s.rebootArmed {
		s.rebootArmed = true
		s.rebootAt = s.now + 1
	}
}

// ltDead reports whether the look-ahead thread can produce no more
// outcomes (its feeder is drained — program halted, walked off the
// skeleton, or the skeleton is empty — and the BOQ is dry): the MT falls
// back to its own predictor. A reboot revives the feeder, so this is
// re-evaluated every fetch.
func (s *System) ltDead() bool {
	return s.lt == nil || (s.lt.Done() && s.boq.Len() == 0)
}

// --------------------------------------------------------------- reboot

func (s *System) doReboot() {
	s.rebootArmed = false
	s.res.Reboots++

	s.ltMach.CopyArchState(s.mtMach)
	s.ltOver.Reset()
	s.ltFeed.Reset()
	s.lt.Flush()
	s.ltMem.L1D.DropDirty()
	s.ltMem.L2.DropDirty()

	s.boq.Flush()
	s.fq.Flush()
	s.ind.Flush()
	s.vq.Flush()

	s.ltStallUntil = s.now + s.opt.RebootCost
}

// ------------------------------------------------------------------ run

// Run executes until the MT commits budget instructions (or the program
// ends) and returns the results. The SMT pair's two copies commit the
// budget between them.
func (s *System) Run(budget uint64) *Results {
	r, _ := s.RunContext(nil, budget)
	return r
}

// cancelCheckMask spaces out RunContext's cancellation polls: ctx.Err is
// consulted once every 4096 cycles, cheap enough to be invisible in the
// simulation hot loop while bounding cancellation latency to microseconds.
const cancelCheckMask = 4096 - 1

// RunContext is Run with cooperative cancellation: ctx (when non-nil) is
// polled periodically, and a canceled run stops early, returning the
// partial results alongside ctx's error. A nil ctx never cancels.
func (s *System) RunContext(ctx context.Context, budget uint64) (*Results, error) {
	guard := pipeline.DeadlockGuard(budget)
	ltGate := 0
	if s.lt != nil {
		ltGate = s.lt.Cfg.CommitWidth
	}
	var twin uint64 // the SMT copy's commits, which the budget counts too
	for !s.mt.Done() && (budget == 0 || s.mt.M.Committed+twin < budget) {
		if ctx != nil && s.now&cancelCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return s.Results(), err
			}
		}
		if s.lt != nil {
			switch {
			case s.rebootArmed && s.now >= s.rebootAt:
				s.doReboot()
				s.lt.StallTick()
			case s.now < s.ltStallUntil,
				s.boq.Len() > s.opt.BOQSize-ltGate,
				s.lt.Done():
				s.lt.StallTick()
			default:
				s.lt.Tick()
			}
			// Watchdog: force a resync if the MT has stopped advancing.
			if s.mt.M.Committed != s.wdLastCommitted {
				s.wdLastCommitted = s.mt.M.Committed
				s.wdStall = 0
			} else if s.wdStall++; s.wdStall > watchdogWindow && !s.rebootArmed {
				s.rebootArmed = true
				s.rebootAt = s.now
				s.res.WatchdogReboots++
			}
		}
		s.mt.Tick()
		if s.smt != nil {
			s.smt.Tick()
			twin = s.smt.M.Committed
		}
		s.now++
		if s.now > guard {
			s.mt.M.Deadlocked = true
			break
		}
	}
	return s.Results(), nil
}

// Results snapshots the run's observables into a Results that shares no
// memory with s.
func (s *System) Results() *Results {
	r := s.res
	r.MT = s.mt.M.Snapshot()
	if s.lt != nil {
		r.LT = s.lt.M.Snapshot()
		r.LTSkipped = s.ltFeed.Skipped
		r.LTMem = s.ltMem.Stats()
	}
	if s.smt != nil {
		r.SMT = s.smt.M.Snapshot()
	}
	r.FQDrops = s.fq.Drops + s.ind.Drops
	r.VQDrops = s.vq.Drops
	if s.t1 != nil {
		r.T1Issued = s.t1.Issued
	}
	r.SIFInserts = s.sif.Inserts
	r.SIFDeletes = s.sif.Deletes
	if s.rc != nil {
		s.rc.Finish(s.mt.M.Committed, s.mt.M.Cycles)
		r.SkeletonUse = slices.Clone(s.rc.UseInsts)
		r.LCT = s.rc.lct.table()
	}
	r.MTMem = s.mtMem.Stats()
	r.L3, r.DRAM = s.shared.L3.Stats, s.shared.DRAM.Stats
	return &r
}
