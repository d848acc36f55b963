package pipeline

import (
	"r3dla/internal/branch"
	"r3dla/internal/emu"
	"r3dla/internal/stats"
)

// Feeder supplies the committed-path dynamic instruction stream. Peek
// returns the next instruction without consuming it (fetch may stall and
// retry); Advance consumes it. The instruction Peek points to is the
// feeder's own, valid until Advance: the core copies it before calling
// Advance and never writes through the pointer.
type Feeder interface {
	Peek() (*emu.DynInst, bool)
	Advance()
}

// MachineFeeder adapts an emu.Machine into a Feeder (functional execution
// happens at Peek — execute-at-fetch).
type MachineFeeder struct {
	M      *emu.Machine
	cur    emu.DynInst
	have   bool
	Budget uint64 // stop after this many instructions (0 = unlimited)
	fed    uint64
}

// Peek returns the next dynamic instruction.
func (f *MachineFeeder) Peek() (*emu.DynInst, bool) {
	if f.have {
		return &f.cur, true
	}
	if f.M.Halted || (f.Budget > 0 && f.fed >= f.Budget) {
		return nil, false
	}
	f.M.StepInto(&f.cur)
	f.have = true
	f.fed++
	return &f.cur, true
}

// Advance consumes the peeked instruction.
func (f *MachineFeeder) Advance() { f.have = false }

// DirectionSource provides conditional-branch direction predictions.
// PredictAndTrain is called once per fetched conditional branch with the
// actual outcome (trace-driven discipline: the source trains immediately;
// the timing cost of a wrong prediction is charged at resolve). ok=false
// means no prediction is available this cycle and fetch must stall (the
// DLA Branch Outcome Queue does this when empty). now is the fetch cycle,
// used by the BOQ to release just-in-time prefetch hints on dequeue.
type DirectionSource interface {
	PredictAndTrain(pc int, actual bool, now uint64) (pred bool, ok bool)
}

// TageSource adapts the TAGE predictor as a DirectionSource.
type TageSource struct {
	P *branch.Predictor
}

// PredictAndTrain predicts and immediately trains.
func (t *TageSource) PredictAndTrain(pc int, actual bool, now uint64) (bool, bool) {
	pred := t.P.Predict(pc)
	t.P.Update(pc, actual)
	return pred, true
}

// ValueSource provides value predictions (DLA value reuse). Lookup is
// consulted at dispatch for every value-producing instruction.
type ValueSource interface {
	Lookup(d *emu.DynInst) (val uint64, ok bool)
	// OnOutcome reports whether the prediction matched the architectural
	// value (confidence maintenance: the SIF drops offenders).
	OnOutcome(d *emu.DynInst, correct bool)
}

// Hooks are optional observation/intervention points used by the DLA
// layer, prefetch wiring, and profilers.
type Hooks struct {
	// OnCommit fires for every committed instruction.
	OnCommit func(d *emu.DynInst, now uint64)
	// OnBranchResolve fires when a control instruction executes.
	OnBranchResolve func(d *emu.DynInst, mispredicted bool, now uint64)
	// OnIssue fires when an instruction enters execution.
	OnIssue func(d *emu.DynInst, dispatchCycle, execDone uint64)
	// OnLoadAccess fires after a load's cache access with the supplying
	// level (1..4) and the completion cycle. Prefetchers attach here.
	OnLoadAccess func(d *emu.DynInst, level int, done, now uint64)
	// TargetHint supplies indirect-branch target predictions (FQ hints);
	// consulted before BTB/RAS.
	TargetHint func(d *emu.DynInst) (target int, ok bool)
	// FetchTag, if set, stamps every fetched instruction's Tag field
	// (the DLA layer uses it to record the BOQ epoch at fetch, aligning
	// FQ payloads with dynamic instances). It is called on every fetch
	// attempt, so an instruction that fetch retries after an I-cache
	// miss is stamped again. The stamp goes on the core's copy, which
	// TargetHint, the ValueSource and every later hook see; the feeder's
	// instruction keeps its own Tag.
	FetchTag func() uint64
}

// Metrics aggregates everything a Core measures in one run.
type Metrics struct {
	Cycles     uint64
	Fetched    uint64
	Dispatched uint64
	Issued     uint64
	Skipped    uint64 // validations skipped by the decode scoreboard
	Committed  uint64

	CondBranches      uint64
	DirMispredicts    uint64
	TargetMispredicts uint64
	FetchStallBOQ     uint64 // cycles fetch stalled on an empty BOQ

	ValuePreds    uint64
	ValueMispreds uint64

	Loads, Stores uint64
	LoadLevelHits [5]uint64 // index = supplying level (1..4)

	FetchBubbles uint64 // decode slots the fetch unit failed to fill

	// Dispatch-to-execute latency accumulation (value-reuse targeting).
	DispExecSum   uint64
	DispExecCount uint64

	// Wrong-path activity estimates (for energy accounting; the timing
	// model charges bubbles instead of simulating wrong-path work).
	WrongPathDecoded  uint64
	WrongPathExecuted uint64

	Deadlocked bool

	FetchQOcc *stats.Histogram
	Supply    *stats.Histogram
	Demand    *stats.Histogram
}

// Snapshot returns a copy of m that shares no memory with it, so a
// finished run's metrics can outlive the core that counted them.
func (m *Metrics) Snapshot() *Metrics {
	c := *m
	c.FetchQOcc, c.Supply, c.Demand = m.FetchQOcc.Clone(), m.Supply.Clone(), m.Demand.Clone()
	return &c
}

// IPC reports committed instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Committed) / float64(m.Cycles)
}
